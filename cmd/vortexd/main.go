// Command vortexd runs an embedded Vortex region and exposes it over an
// HTTP/JSON edge API — the role BigQuery's frontend tasks play in front
// of the Vortex client library (§5.4).
//
//	POST /v1/tables         {"table": "d.t", "schema": {...}}
//	POST /v1/append         {"table": "d.t", "rows": [[...], ...]}
//	POST /v1/query          {"sql": "SELECT ..."}
//	POST /v1/optimize       {"table": "d.t"}
//	GET  /v1/health
//
// Rows are JSON arrays parallel to the schema fields; scalars map to
// JSON strings/numbers/bools, TIMESTAMP to RFC3339 strings, STRUCT to
// arrays, ARRAY to nested arrays.
//
// With -role coordinator or -role worker, vortexd instead runs one node
// of a multi-process cluster over the TCP transport (see the "Running a
// real cluster" section of the README):
//
//	vortexd -role coordinator -listen 127.0.0.1:7000 -key $KEY \
//	        -peers ss-alpha-0=127.0.0.1:7001,ss-beta-0=127.0.0.1:7002
//	vortexd -role worker -listen 127.0.0.1:7001 -key $KEY \
//	        -serve ss-alpha-0 -coordinator 127.0.0.1:7000
//
// Stream Server addresses follow the convention ss-<cluster>-<suffix>;
// the cluster segment tells the coordinator's placer which Colossus
// cluster is the server's home replica.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"vortex"
	"vortex/internal/clusterd"
	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/schema"
)

type server struct {
	db *vortex.DB

	mu      sync.Mutex
	streams map[meta.TableID]*vortex.Stream
}

func main() {
	clusterd.MaybeRunNode()
	var (
		addr        = flag.String("addr", "127.0.0.1:8550", "HTTP listen address (role region)")
		role        = flag.String("role", "region", "region | coordinator | worker")
		listen      = flag.String("listen", "127.0.0.1:0", "TCP transport listen address (cluster roles)")
		peers       = flag.String("peers", "", "comma-separated logical=host:port routes to other cluster processes")
		coordinator = flag.String("coordinator", "", "coordinator host:port (role worker)")
		serve       = flag.String("serve", "", "comma-separated stream server addrs this worker hosts, named ss-<cluster>-<n>")
		clusters    = flag.String("clusters", "alpha,beta", "Colossus cluster names (cluster roles)")
		smsTasks    = flag.Int("sms", 2, "SMS task count (cluster roles)")
		keyHex      = flag.String("key", "", "shared 32-byte hex AES key (cluster roles)")
	)
	flag.Parse()
	if *role != "region" {
		if err := runClusterRole(*role, *listen, *peers, *coordinator, *serve, *clusters, *smsTasks, *keyHex); err != nil {
			log.Fatal(err)
		}
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db := vortex.Open()
	db.Region.RunHeartbeats(ctx, 250*time.Millisecond)
	s := &server{db: db, streams: make(map[meta.TableID]*vortex.Stream)}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tables", s.handleCreateTable)
	mux.HandleFunc("POST /v1/append", s.handleAppend)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status": "ok"}`)
	})
	log.Printf("vortexd listening on %s", *addr)
	log.Fatal(http.ListenAndServe(*addr, mux))
}

// parseServerSpecs derives ServerSpecs from ss-<cluster>-<suffix> names.
func parseServerSpecs(addrs []string) ([]clusterd.ServerSpec, error) {
	specs := make([]clusterd.ServerSpec, 0, len(addrs))
	for _, a := range addrs {
		parts := strings.SplitN(a, "-", 3)
		if len(parts) < 3 || parts[0] != "ss" {
			return nil, fmt.Errorf("stream server addr %q does not follow ss-<cluster>-<suffix>", a)
		}
		specs = append(specs, clusterd.ServerSpec{Addr: a, Cluster: parts[1]})
	}
	return specs, nil
}

// runClusterRole runs one statically-configured cluster node until
// SIGINT/SIGTERM.
func runClusterRole(role, listen, peers, coordinator, serve, clusters string, smsTasks int, keyHex string) error {
	tr := rpc.NewTCPTransport()
	defer tr.Close()
	hostport, err := tr.Listen(listen)
	if err != nil {
		return err
	}
	routes := map[string]string{}
	var peerAddrs []string
	if peers != "" {
		for _, kv := range strings.Split(peers, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return fmt.Errorf("bad -peers entry %q (want logical=host:port)", kv)
			}
			routes[k] = v
			peerAddrs = append(peerAddrs, k)
		}
	}
	if coordinator != "" {
		for i := 0; i < smsTasks; i++ {
			routes[fmt.Sprintf("sms-%d", i)] = coordinator
		}
		routes["colossus"] = coordinator
		routes["readsession-0"] = coordinator
	}
	tr.AddRoutes(routes)

	cfg := clusterd.NodeConfig{
		Role:     role,
		Clusters: strings.Split(clusters, ","),
		SMSTasks: smsTasks,
		Key:      keyHex,
	}
	switch role {
	case "coordinator":
		var ssPeers []string
		for _, a := range peerAddrs {
			if strings.HasPrefix(a, "ss-") {
				ssPeers = append(ssPeers, a)
			}
		}
		if cfg.AllServers, err = parseServerSpecs(ssPeers); err != nil {
			return err
		}
		if _, err := clusterd.StartCoordinator(tr, cfg); err != nil {
			return err
		}
	case "worker":
		if cfg.Servers, err = parseServerSpecs(strings.Split(serve, ",")); err != nil {
			return err
		}
		w, err := clusterd.StartWorker(tr, cfg)
		if err != nil {
			return err
		}
		defer w.Stop()
	default:
		return fmt.Errorf("unknown role %q", role)
	}
	log.Printf("vortexd %s listening on %s", role, hostport)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	return nil
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (s *server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Table  meta.TableID   `json:"table"`
		Schema *schema.Schema `json:"schema"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.db.CreateTable(r.Context(), req.Table, req.Schema); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "created"})
}

// stream returns the server's shared ingestion stream for a table.
func (s *server) stream(ctx context.Context, table meta.TableID) (*vortex.Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.streams[table]; ok {
		return st, nil
	}
	st, err := s.db.Table(table).NewStream(ctx, vortex.Unbuffered)
	if err != nil {
		return nil, err
	}
	s.streams[table] = st
	return st, nil
}

func (s *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Table meta.TableID        `json:"table"`
		Rows  [][]json.RawMessage `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sc, err := s.db.Table(req.Table).Schema(r.Context())
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	rows := make([]schema.Row, 0, len(req.Rows))
	for i, raw := range req.Rows {
		row, err := jsonToRow(sc, raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("row %d: %w", i, err))
			return
		}
		rows = append(rows, row)
	}
	st, err := s.stream(r.Context(), req.Table)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	off, err := st.Append(r.Context(), rows)
	s.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"offset": off, "rows": len(rows)})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		SQL string `json:"sql"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.db.Query(r.Context(), req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := map[string]any{
		"columns": res.Columns,
		"rows":    renderRows(res),
		"stats": map[string]any{
			"assignments_total":  res.Stats.AssignmentsTotal,
			"assignments_pruned": res.Stats.AssignmentsPruned,
			"rows_scanned":       res.Stats.RowsScanned,
			"rows_affected":      res.Stats.RowsAffected,
		},
	}
	_ = json.NewEncoder(w).Encode(out)
}

func (s *server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Table meta.TableID `json:"table"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.db.Heartbeat(r.Context())
	res, err := s.db.Optimize(r.Context(), req.Table)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	merged, err := s.db.Recluster(r.Context(), req.Table, false)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"fragments_converted": res.FragmentsConverted,
		"files_written":       res.FilesWritten,
		"rows_converted":      res.RowsConverted,
		"partitions_merged":   merged,
	})
}

func renderRows(res *vortex.Result) [][]string {
	out := make([][]string, len(res.Rows()))
	for i, r := range res.Rows() {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.String()
		}
		out[i] = row
	}
	return out
}

// jsonToRow converts a JSON array (parallel to the schema fields) to a Row.
func jsonToRow(sc *schema.Schema, raw []json.RawMessage) (schema.Row, error) {
	if len(raw) > len(sc.Fields) {
		return schema.Row{}, fmt.Errorf("%d values for %d fields", len(raw), len(sc.Fields))
	}
	values := make([]schema.Value, len(raw))
	for i, rm := range raw {
		v, err := jsonToValue(sc.Fields[i], rm)
		if err != nil {
			return schema.Row{}, fmt.Errorf("field %q: %w", sc.Fields[i].Name, err)
		}
		values[i] = v
	}
	return schema.Row{Values: values}, nil
}

func jsonToValue(f *schema.Field, raw json.RawMessage) (schema.Value, error) {
	if string(raw) == "null" {
		return schema.Null(), nil
	}
	if f.Mode == schema.Repeated {
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			return schema.Value{}, err
		}
		out := make([]schema.Value, len(elems))
		scalar := *f
		scalar.Mode = schema.Nullable
		for i, e := range elems {
			v, err := jsonToValue(&scalar, e)
			if err != nil {
				return schema.Value{}, err
			}
			out[i] = v
		}
		return schema.List(out...), nil
	}
	switch f.Kind {
	case schema.KindInt64:
		var n int64
		if err := json.Unmarshal(raw, &n); err != nil {
			return schema.Value{}, err
		}
		return schema.Int64(n), nil
	case schema.KindFloat64:
		var x float64
		if err := json.Unmarshal(raw, &x); err != nil {
			return schema.Value{}, err
		}
		return schema.Float64(x), nil
	case schema.KindBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return schema.Value{}, err
		}
		return schema.Bool(b), nil
	case schema.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return schema.Value{}, err
		}
		return schema.String(s), nil
	case schema.KindJSON:
		return schema.JSON(string(raw))
	case schema.KindTimestamp:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return schema.Value{}, err
		}
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Timestamp(t), nil
	case schema.KindDate:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return schema.Value{}, err
		}
		t, err := time.Parse("2006-01-02", s)
		if err != nil {
			return schema.Value{}, err
		}
		return schema.Date(t), nil
	case schema.KindNumeric:
		var s json.Number
		if err := json.Unmarshal(raw, &s); err != nil {
			return schema.Value{}, err
		}
		return schema.NumericFromString(s.String())
	case schema.KindStruct:
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			return schema.Value{}, err
		}
		if len(elems) > len(f.Fields) {
			return schema.Value{}, fmt.Errorf("%d values for %d struct fields", len(elems), len(f.Fields))
		}
		out := make([]schema.Value, len(elems))
		for i, e := range elems {
			v, err := jsonToValue(f.Fields[i], e)
			if err != nil {
				return schema.Value{}, err
			}
			out[i] = v
		}
		return schema.Struct(out...), nil
	}
	return schema.Value{}, fmt.Errorf("unsupported kind %v", f.Kind)
}
