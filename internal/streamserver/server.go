// Package streamserver implements the Vortex data plane (§5.3): a
// server owning a set of Streamlets, appending row batches to Fragment
// log files replicated synchronously to two Colossus clusters (§5.6),
// rotating fragments on size and on write errors, maintaining column
// properties for partition elimination (§7.2), and heartbeating metadata
// deltas and load to the control plane (§5.5).
package streamserver

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/bloom"
	"vortex/internal/colossus"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/rowenc"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// Router resolves the SMS task responsible for a table (Slicer-backed).
type Router interface {
	SMSFor(table meta.TableID) (string, error)
}

// Chaos is the fault-injection surface the data plane consults
// (satisfied by *chaos.Schedule; wired by internal/core): Inject
// evaluates the append cut-point, and ClusterOut reports whether a
// Colossus cluster is scheduled out — the trigger for falling back to
// single-cluster replication (§5.6).
type Chaos interface {
	Inject(ctx context.Context, point, target string) error
	ClusterOut(cluster string) bool
}

// ChaosPointAppend is this package's cut-point: evaluated at the top of
// every append, before any durable write. The target is the server addr.
const ChaosPointAppend = "streamserver.append"

// Config parameterizes a Stream Server.
type Config struct {
	// Addr is the server's transport address.
	Addr string
	// MaxFragmentBytes rotates fragments when exceeded. The paper sizes
	// fragments "small enough that conversion ... happens frequently,
	// but not so small that too many Fragments are created" (§5.3).
	// Zero or less means 8 MiB.
	MaxFragmentBytes int64
	// HeartbeatCoalesce, when positive, suppresses delta heartbeats that
	// would fire within this window of the previous one, so control-plane
	// traffic stays O(servers) under thousands of dirty streams instead
	// of tracking every append. Skipped rounds keep their dirty set; a
	// full heartbeat is never coalesced. Zero disables coalescing.
	HeartbeatCoalesce time.Duration
	// HeartbeatMaxStreamlets caps the streamlet deltas carried by one
	// heartbeat round; the remainder stays dirty for the next round.
	// Bounds heartbeat size under massive fanout. Zero means unlimited.
	HeartbeatMaxStreamlets int
}

// Server is one Stream Server task.
type Server struct {
	cfg    Config
	region colossus.Store
	clock  truetime.Clock
	sealer *blockenc.Sealer
	keyID  blockenc.KeyID
	router Router
	net    rpc.Transport
	chaos  Chaos

	seqMu   sync.Mutex
	lastSeq truetime.Timestamp

	mu          sync.Mutex
	streamlets  map[meta.StreamletID]*streamlet
	dirty       map[meta.StreamletID]bool
	deletedAcks []wire.FragmentRef
	crashed     bool
	// tableBytes accumulates appended bytes per table since the last
	// acknowledged heartbeat; HeartbeatNow reports them to the SMS for
	// byte-rate admission control (rolled back if the send fails).
	tableBytes map[meta.TableID]int64
	// shedUntil holds SMS shed instructions: appends to a listed table
	// are rejected with RESOURCE_EXHAUSTED until the deadline passes.
	shedUntil map[meta.TableID]truetime.Timestamp
	// lastHB is when the previous (non-coalesced) heartbeat round ran.
	lastHB truetime.Timestamp

	// fileDeleteObserver is invoked with the Colossus paths of fragment
	// files this server deletes during GC (§5.4.3); the region uses it
	// to invalidate client read caches.
	fileDeleteObserver func(paths []string)

	bytesAppended  metrics.Counter
	appendOps      metrics.Counter
	degradedWrites metrics.Counter
	shedAppends    metrics.Counter
	hbSent         metrics.Counter
	hbCoalesced    metrics.Counter
}

// streamlet is the server's in-memory truth about one streamlet.
// info.RowCount counts the acknowledged rows; info.State is WRITABLE
// until relinquish, the one transition out of it.
type streamlet struct {
	mu        sync.Mutex
	info      meta.StreamletInfo
	schema    *schema.Schema
	epoch     int64
	fragments []*meta.FragmentInfo
	cur       *fragWriter
	// pendingCommit marks that the last data block has no successor yet:
	// the commit record is combined with the next append or written
	// after inactivity (§7.1).
	pendingCommit bool
	// lastAppend remembers the most recent acknowledged append so a
	// retransmission whose ack was lost (or a hedged duplicate) can be
	// answered with the original response instead of WRONG_OFFSET —
	// exactly-once across response loss (§4.2.2).
	lastAppend *appendMemo
}

// appendMemo is the replay record of one acknowledged append.
type appendMemo struct {
	startOffset int64
	crc         uint32
	resp        wire.AppendResponse
}

// maxBloomKeys is the most distinct clustering values a fragment's
// filter is sized for.
const maxBloomKeys = 1 << 14

// fragWriter is the state of the currently-open fragment. keys holds
// the distinct clustering values seen so far; the filter is built from
// them at finalization, sized for what the fragment holds.
type fragWriter struct {
	info       *meta.FragmentInfo
	size       int64 // bytes written (identical in both replicas)
	keys       *bloom.Builder
	clusterMin []schema.Value
	clusterMax []schema.Value
	partitions map[int64]bool
}

// New creates a Stream Server and registers its handlers on net.
func New(cfg Config, region colossus.Store, clock truetime.Clock, keyring *blockenc.Keyring, router Router, net rpc.Transport) *Server {
	if cfg.MaxFragmentBytes <= 0 {
		cfg.MaxFragmentBytes = 8 << 20
	}
	s := &Server{
		cfg:        cfg,
		region:     region,
		clock:      clock,
		sealer:     blockenc.NewSealer(keyring),
		router:     router,
		net:        net,
		streamlets: make(map[meta.StreamletID]*streamlet),
		dirty:      make(map[meta.StreamletID]bool),
		tableBytes: make(map[meta.TableID]int64),
		shedUntil:  make(map[meta.TableID]truetime.Timestamp),
	}
	srv := rpc.NewServer()
	wire.CreateStreamlet.Handle(srv, s.handleCreateStreamlet)
	wire.Append.Handle(srv, s.handleAppendUnary)
	srv.RegisterStream(wire.Append.Name(), s.handleAppendStream)
	wire.Flush.Handle(srv, s.handleFlush)
	wire.FinalizeStreamlet.Handle(srv, s.handleFinalizeStreamlet)
	wire.StreamletState.Handle(srv, s.handleStreamletState)
	net.Register(cfg.Addr, srv)
	return s
}

// Addr returns the server's address.
func (s *Server) Addr() string { return s.cfg.Addr }

// SetChaos installs the fault-injection schedule (nil injects nothing).
func (s *Server) SetChaos(c Chaos) {
	s.mu.Lock()
	s.chaos = c
	s.mu.Unlock()
}

func (s *Server) chaosSchedule() Chaos {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chaos
}

// Crash simulates a hard crash: the server vanishes from the network and
// loses its in-memory state (its durable truth stays in Colossus).
func (s *Server) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.streamlets = make(map[meta.StreamletID]*streamlet)
	s.dirty = make(map[meta.StreamletID]bool)
	s.tableBytes = make(map[meta.TableID]int64)
	s.shedUntil = make(map[meta.TableID]truetime.Timestamp)
	s.lastHB = 0
	s.mu.Unlock()
	s.net.Deregister(s.cfg.Addr)
}

// assignTS hands out a strictly increasing TrueTime timestamp range of n
// rows: the batch's first row gets the returned timestamp, row i gets
// +i. Strict monotonicity across batches gives every row of this server
// a unique timestamp usable as its storage sequence number.
func (s *Server) assignTS(n int64) truetime.Timestamp {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	if n < 1 {
		n = 1
	}
	// Reserve the whole [ts, ts+n) range on the clock, not just its
	// first tick: servers sharing one clock (the embedded region, the
	// deterministic simulation) would otherwise hand out overlapping
	// row-sequence ranges whenever the clock advances less than n ns
	// between batches.
	ts := truetime.CommitRange(s.clock, n)
	if ts <= s.lastSeq {
		ts = s.lastSeq + 1
	}
	s.lastSeq = ts + truetime.Timestamp(n) - 1
	return ts
}

func (s *Server) lookup(id meta.StreamletID) (*streamlet, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.streamlets[id]
	return sl, ok
}

func (s *Server) markDirty(id meta.StreamletID) {
	s.mu.Lock()
	s.dirty[id] = true
	s.mu.Unlock()
}

// shedDeadline reports whether appends to the table are currently shed,
// and if so how long the client should wait before retrying. Expired
// instructions are dropped lazily here.
func (s *Server) shedDeadline(table meta.TableID) (time.Duration, bool) {
	s.mu.Lock()
	until, ok := s.shedUntil[table]
	s.mu.Unlock()
	if !ok {
		return 0, false
	}
	now := s.clock.Now().Latest
	if now >= until {
		s.mu.Lock()
		// Re-check: a fresher instruction may have landed meanwhile.
		if cur, ok := s.shedUntil[table]; ok && now >= cur {
			delete(s.shedUntil, table)
		}
		s.mu.Unlock()
		return 0, false
	}
	return until.Sub(now), true
}

// ---- handlers ----

func (s *Server) handleCreateStreamlet(_ context.Context, r *wire.CreateStreamletRequest) (*wire.CreateStreamletResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.streamlets[r.Info.ID]; exists {
		return &wire.CreateStreamletResponse{}, nil // idempotent
	}
	info := r.Info
	info.Server = s.cfg.Addr
	s.streamlets[info.ID] = &streamlet{
		info:   info,
		schema: r.Schema,
		epoch:  r.Epoch,
	}
	s.dirty[info.ID] = true
	return &wire.CreateStreamletResponse{}, nil
}

func (s *Server) handleAppendUnary(ctx context.Context, r *wire.AppendRequest) (*wire.AppendResponse, error) {
	return s.append(ctx, r)
}

func (s *Server) handleAppendStream(ctx context.Context, stream rpc.ServerStream) error {
	for {
		r, err := wire.Append.Request(stream)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		resp, err := s.append(ctx, r)
		if err != nil {
			return err
		}
		if err := stream.Send(resp); err != nil {
			return err
		}
	}
}

// append is the core data-plane write path. A non-nil error is a
// transport-level failure (e.g. an injected crash); application
// outcomes travel in AppendResponse.Error.
func (s *Server) append(ctx context.Context, r *wire.AppendRequest) (*wire.AppendResponse, error) {
	// Chaos cut-point before any durable write: a crash here loses the
	// request, never the data (§5.3 rotation handles the rest).
	if c := s.chaosSchedule(); c != nil {
		if err := c.Inject(ctx, ChaosPointAppend, s.cfg.Addr); err != nil {
			return nil, err
		}
	}
	fail := func(code, detail string) (*wire.AppendResponse, error) {
		if detail != "" {
			code = code + ": " + detail
		}
		return &wire.AppendResponse{Error: code}, nil
	}
	sl, ok := s.lookup(r.Streamlet)
	if !ok {
		return fail(wire.ErrCodeUnknown, string(r.Streamlet))
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.info.State == meta.StreamletFinalized {
		return fail(wire.ErrCodeStreamletClosed, "")
	}
	// Load shedding (§5.5): the SMS told us this table is over its
	// ingestion quota. A flagged retransmission of the last acknowledged
	// batch still replays its ack — that data is already durable, and
	// shedding the retry would turn response loss into apparent data
	// loss. (The memo's offset is always behind the live stream offset,
	// so this never admits a fresh append.)
	if retryAfter, shedding := s.shedDeadline(sl.info.Table); shedding {
		if m := sl.lastAppend; r.Retry && m != nil && r.ExpectedStreamOffset == m.startOffset && r.CRC == m.crc {
			resp := m.resp
			return &resp, nil
		}
		s.shedAppends.Add(1)
		return &wire.AppendResponse{
			Error:           wire.ErrCodeResourceExhausted + ": table " + string(sl.info.Table) + " over ingestion quota",
			RetryAfterNanos: int64(retryAfter),
		}, nil
	}
	// Schema staleness: the server relays schema changes to clients when
	// they try to append (§5.4.1). A streamlet created without a schema
	// (a peer may send one) has none to check against until a heartbeat
	// answer gives it the table's: refused the same way, retryable.
	if sl.schema == nil {
		return fail(wire.ErrCodeSchemaStale, "streamlet has no schema yet")
	}
	if r.SchemaVersion < sl.schema.Version {
		return fail(wire.ErrCodeSchemaStale, fmt.Sprintf("server has v%d", sl.schema.Version))
	}
	// End-to-end CRC (§5.4.5).
	if blockenc.Checksum(r.Payload) != r.CRC {
		return fail(wire.ErrCodeBadPayload, "crc mismatch")
	}
	// Every column is read, so a block accepted here is one the reader
	// decodes whichever columns it reads.
	var cols []*wire.ColumnBuilder
	changes, _, err := wire.DecodeBlock(r.Payload, nil, nil, func(_, rows int) *wire.ColumnBuilder {
		cols = append(cols, wire.NewColumnBuilder("", rows, len(r.Payload)))
		return cols[len(cols)-1]
	})
	if err != nil {
		return fail(wire.ErrCodeBadPayload, err.Error())
	}
	nrows := int64(len(changes))
	// Offset validation (§4.2.2).
	streamOffset := sl.info.StartOffset + sl.info.RowCount
	if r.ExpectedStreamOffset >= 0 && r.ExpectedStreamOffset != streamOffset {
		// A flagged retransmission of the last acknowledged batch (same
		// offset, same payload CRC) replays the original ack: the first
		// attempt landed but its response was lost, or a hedge raced the
		// primary. Fresh duplicate appends still fail below.
		if m := sl.lastAppend; r.Retry && m != nil && r.ExpectedStreamOffset == m.startOffset && r.CRC == m.crc {
			resp := m.resp
			return &resp, nil
		}
		return fail(wire.ErrCodeWrongOffset, fmt.Sprintf("stream is at %d, request expects %d", streamOffset, r.ExpectedStreamOffset))
	}

	ts := s.assignTS(nrows)
	if err := s.writeDataBlock(sl, r.Payload, ts, nrows); err != nil {
		// Whatever failed the write, the streamlet ends here; the client
		// rotates and reconciliation settles its length (§5.3, §5.6).
		s.relinquish(sl)
		if errors.Is(err, colossus.ErrSizeMismatch) {
			return fail(wire.ErrCodeStreamletClosed, "ownership lost")
		}
		return fail(wire.ErrCodeIO, err.Error())
	}
	// Update column properties for pruning (§7.2).
	s.recordProps(sl, len(changes), cols)
	sl.info.RowCount += nrows
	s.markDirty(sl.info.ID)
	s.appendOps.Add(1)
	s.bytesAppended.Add(int64(len(r.Payload)))
	s.mu.Lock()
	s.tableBytes[sl.info.Table] += int64(len(r.Payload))
	s.mu.Unlock()

	// Rotate on size.
	if sl.cur != nil && sl.cur.size >= s.cfg.MaxFragmentBytes {
		s.finalizeCurrentFragment(sl)
	}
	resp := &wire.AppendResponse{StreamOffset: streamOffset, RowCount: nrows, Timestamp: ts}
	sl.lastAppend = &appendMemo{startOffset: streamOffset, crc: r.CRC, resp: *resp}
	return resp, nil
}

// writeDataBlock writes one sealed data block (preceded by a pending
// commit record if any) to both replicas, opening and rotating fragments
// as needed. It gives up once the streamlet is relinquished. Caller
// holds sl.mu.
func (s *Server) writeDataBlock(sl *streamlet, payload []byte, ts truetime.Timestamp, nrows int64) error {
	sealed, err := s.sealer.Seal(payload, blockenc.Checksum(payload), s.keyID)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if sl.cur == nil {
			if err := s.openFragment(sl); err != nil {
				return err
			}
		}
		var blocks []fragment.Block
		if sl.pendingCommit {
			blocks = append(blocks, fragment.Block{Kind: fragment.BlockCommit, Timestamp: ts})
		}
		blocks = append(blocks, fragment.Block{
			Kind:      fragment.BlockData,
			Timestamp: ts,
			StartRow:  sl.info.RowCount,
			RowCount:  nrows,
			Payload:   sealed,
		})
		if err := s.appendLog(sl, nil, blocks...); err != nil {
			lastErr = err
			if sl.info.State == meta.StreamletFinalized {
				return err
			}
			// Rotate: close the failed fragment at its committed size and
			// retry into a fresh one (§5.3).
			s.abandonCurrentFragment(sl)
			continue
		}
		fw := sl.cur
		fw.info.RowCount += nrows
		if fw.info.MinRecordTS == 0 || ts < fw.info.MinRecordTS {
			fw.info.MinRecordTS = ts
		}
		if end := ts + truetime.Timestamp(nrows-1); end > fw.info.MaxRecordTS {
			fw.info.MaxRecordTS = end
		}
		return nil
	}
	return fmt.Errorf("streamserver: append failed after retries: %w", lastErr)
}

// appendLog is the one replicated write that grows the open fragment:
// its header, which opens the file, then runs of blocks. Once both
// replicas hold the bytes, the fragment's size and committed size move
// past them, and a run that ends in a DATA block leaves its commit
// record pending for the next write (§7.1). Caller holds sl.mu.
func (s *Server) appendLog(sl *streamlet, header []byte, blocks ...fragment.Block) error {
	data := header
	for _, b := range blocks {
		data = append(data, fragment.EncodeBlock(b)...)
	}
	if err := s.writeBoth(sl, data); err != nil {
		return err
	}
	sl.cur.size += int64(len(data))
	sl.cur.info.CommittedBytes = sl.cur.size
	if n := len(blocks); n > 0 {
		sl.pendingCommit = blocks[n-1].Kind == fragment.BlockData
	}
	return nil
}

// writeBoth performs the synchronous dual-cluster replicated write:
// identical bytes to both replicas, success only if both succeed (§5.6).
// A streamlet already degraded to single-cluster replication (identical
// cluster entries) writes once; a dual-homed streamlet whose one failed
// replica sits in a scheduled cluster outage degrades in place — after
// the SMS durably records the new replica set — instead of failing the
// append. A size mismatch on either replica means a reconciliation
// fenced the file (§5.6): the server relinquishes the streamlet. Caller
// holds sl.mu.
func (s *Server) writeBoth(sl *streamlet, data []byte) error {
	crc := blockenc.Checksum(data)
	path := sl.cur.info.Path
	expect := sl.cur.size
	clusters := sl.info.Clusters
	var errs [2]error
	write := func(i int) {
		c := s.region.Blob(clusters[i])
		if c == nil {
			errs[i] = fmt.Errorf("streamserver: no cluster %q", clusters[i])
			return
		}
		_, errs[i] = c.AppendAt(path, expect, data, crc)
	}
	var wg sync.WaitGroup
	if clusters[0] != clusters[1] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			write(1)
		}()
	}
	write(0)
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		return nil
	}
	for _, err := range errs {
		if errors.Is(err, colossus.ErrSizeMismatch) {
			s.relinquish(sl)
			return err
		}
	}
	// Degraded single-cluster commit (§5.6): exactly one replica of a
	// dual-homed streamlet failed, in a scheduled outage, and the other
	// has the bytes; record the fallback durably, then acknowledge.
	if clusters[0] != clusters[1] && (errs[0] == nil) != (errs[1] == nil) {
		out, healthy := clusters[0], clusters[1]
		if errs[0] == nil {
			out, healthy = healthy, out
		}
		if chaos := s.chaosSchedule(); chaos != nil && chaos.ClusterOut(out) && s.degradeStreamlet(sl, healthy) == nil {
			s.degradedWrites.Add(1)
			return nil
		}
	}
	return cmp.Or(errs[0], errs[1])
}

// degradeStreamlet flips the streamlet (and its open fragment) to
// single-cluster replication on healthy, synchronously recording the
// change at the SMS so reconciliation and readers stop consulting the
// out cluster's stale replica. Earlier, completed fragments stay
// dual-homed — both their replicas are whole. A FINALIZED answer means
// a reconciliation took the streamlet: the server relinquishes it and
// the degraded write fails. Caller holds sl.mu.
func (s *Server) degradeStreamlet(sl *streamlet, healthy string) error {
	addr, err := s.router.SMSFor(sl.info.Table)
	if err != nil {
		return err
	}
	resp, err := wire.DegradeStreamlet.Call(context.Background(), s.net, addr, &wire.DegradeStreamletRequest{
		Table:     sl.info.Table,
		Stream:    sl.info.Stream,
		Streamlet: sl.info.ID,
		Clusters:  [2]string{healthy, healthy},
	})
	if err != nil {
		return err
	}
	if resp.Finalized {
		s.relinquish(sl)
		return fmt.Errorf("streamserver: %s: streamlet %s is finalized", wire.ErrCodeStreamletClosed, sl.info.ID)
	}
	sl.info.Clusters = [2]string{healthy, healthy}
	if sl.cur != nil {
		sl.cur.info.Clusters = sl.info.Clusters
	}
	s.markDirty(sl.info.ID)
	return nil
}

// openFragment creates the next fragment file with a File Map header. A
// failed create relinquishes the streamlet: a reconciliation may have
// claimed the path (§5.6), and a half-created file may sit in one
// cluster. Caller holds sl.mu.
func (s *Server) openFragment(sl *streamlet) error {
	idx := sl.info.NextFragmentIndex
	var fmap []fragment.FileMapEntry
	for _, f := range sl.fragments {
		fmap = append(fmap, fragment.FileMapEntry{
			Index:         f.Index,
			CommittedSize: f.CommittedBytes,
			StartRow:      f.StartRow,
			RowCount:      f.RowCount,
			MinTS:         f.MinRecordTS,
			MaxTS:         f.MaxRecordTS,
		})
	}
	hdr := fragment.EncodeHeader(fragment.Header{
		StreamletID:   string(sl.info.ID),
		Index:         idx,
		SchemaVersion: sl.schema.Version,
		WriterEpoch:   sl.epoch,
		FileMap:       fmap,
	})
	info := &meta.FragmentInfo{
		ID:            meta.FragmentIDFor(sl.info.ID, idx),
		Streamlet:     sl.info.ID,
		Table:         sl.info.Table,
		Index:         idx,
		Format:        meta.WOS,
		Path:          fragment.Path(sl.info.Table, sl.info.ID, idx),
		Clusters:      sl.info.Clusters,
		StartRow:      sl.info.RowCount,
		CreationTS:    s.clock.Commit(),
		SchemaVersion: sl.schema.Version,
	}
	fw := &fragWriter{
		info:       info,
		keys:       bloom.NewBuilder(maxBloomKeys),
		partitions: make(map[int64]bool),
	}
	sl.cur = fw
	if err := s.appendLog(sl, hdr); err != nil {
		s.relinquish(sl)
		return err
	}
	sl.info.NextFragmentIndex = idx + 1
	sl.fragments = append(sl.fragments, info)
	return nil
}

// abandonCurrentFragment closes the current fragment after a write
// failure; its committed prefix remains readable. Caller holds sl.mu.
func (s *Server) abandonCurrentFragment(sl *streamlet) {
	if sl.cur == nil {
		return
	}
	sl.cur.info.Finalized = true
	sl.cur = nil
}

// finalizeCurrentFragment writes the bloom filter and footer, marking
// the fragment finalized; its column properties are then communicated
// to the SMS via heartbeat (§7.2). Caller holds sl.mu.
func (s *Server) finalizeCurrentFragment(sl *streamlet) {
	fw := sl.cur
	if fw == nil {
		return
	}
	filter := fw.keys.Build().Marshal()
	suffix := fragment.EncodeFinalization(fragment.Footer{
		BloomOffset:   fw.size,
		CommittedSize: fw.size,
		RowCount:      fw.info.RowCount,
		MinTS:         fw.info.MinRecordTS,
		MaxTS:         fw.info.MaxRecordTS,
	}, filter)
	// Best effort: a failed footer write leaves a valid unfinalized file.
	// The suffix is not committed data, and the fragment closes here, so
	// nothing grows past the blocks.
	_ = s.writeBoth(sl, suffix)
	fw.info.Finalized = true
	fw.info.Bloom = filter
	if len(fw.clusterMin) > 0 {
		fw.info.ClusterMin = rowenc.EncodeValues(fw.clusterMin)
		fw.info.ClusterMax = rowenc.EncodeValues(fw.clusterMax)
	}
	for p := range fw.partitions {
		fw.info.PartitionSet = append(fw.info.PartitionSet, p)
	}
	sl.cur = nil
	s.markDirty(sl.info.ID)
}

// recordProps updates the open fragment's column properties from the
// key columns of a decoded block of rows rows. Caller holds sl.mu.
func (s *Server) recordProps(sl *streamlet, rows int, cols []*wire.ColumnBuilder) {
	fw := sl.cur
	if fw == nil {
		return
	}
	// The key columns, the partition field's first: NULL in every row
	// for a field past the block's columns.
	fields := append([]string{sl.schema.PartitionField}, sl.schema.ClusterBy...)
	keys := make([]wire.Vector, len(fields))
	for n, field := range fields {
		if f := sl.schema.FieldIndex(field); f >= 0 && f < len(cols) {
			keys[n] = cols[f].Vector()
		} else {
			keys[n] = wire.ConstVector("", schema.Null(), rows)
		}
	}
	ck := make([]schema.Value, len(sl.schema.ClusterBy))
	for i := range rows {
		if p, ok := schema.PartitionOfValue(keys[0].ValueAt(i)); ok {
			fw.partitions[p] = true
		}
		if len(ck) == 0 {
			continue
		}
		for n := range ck {
			ck[n] = keys[n+1].ValueAt(i)
		}
		if fw.clusterMin == nil || schema.CompareClusterKeys(ck, fw.clusterMin) < 0 {
			fw.clusterMin = append([]schema.Value(nil), ck...)
		}
		if fw.clusterMax == nil || schema.CompareClusterKeys(ck, fw.clusterMax) > 0 {
			fw.clusterMax = append([]schema.Value(nil), ck...)
		}
		for _, v := range ck {
			if !v.IsNull() {
				fw.keys.AddString(v.Key())
			}
		}
	}
}

func (s *Server) handleFlush(_ context.Context, r *wire.FlushRequest) (*wire.FlushResponse, error) {
	sl, found := s.lookup(r.Streamlet)
	if !found {
		return nil, fmt.Errorf("streamserver: %s: unknown streamlet %s", wire.ErrCodeUnknown, r.Streamlet)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.info.State == meta.StreamletFinalized {
		return nil, fmt.Errorf("streamserver: %s", wire.ErrCodeStreamletClosed)
	}
	if sl.schema == nil { // a fragment header records the schema version
		return nil, fmt.Errorf("streamserver: %s: streamlet has no schema yet", wire.ErrCodeSchemaStale)
	}
	if sl.cur == nil {
		if err := s.openFragment(sl); err != nil {
			return nil, err
		}
	}
	if err := s.appendLog(sl, nil, fragment.Block{
		Kind:      fragment.BlockFlush,
		Timestamp: s.clock.Commit(),
		StartRow:  r.StreamOffset,
	}); err != nil {
		return nil, err
	}
	s.markDirty(sl.info.ID)
	return &wire.FlushResponse{}, nil
}

func (s *Server) handleFinalizeStreamlet(_ context.Context, r *wire.FinalizeStreamletRequest) (*wire.FinalizeStreamletResponse, error) {
	sl, found := s.lookup(r.Streamlet)
	if !found {
		return nil, fmt.Errorf("streamserver: %s: unknown streamlet %s", wire.ErrCodeUnknown, r.Streamlet)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.info.State != meta.StreamletFinalized {
		if sl.pendingCommit && sl.cur != nil {
			// Best effort, like the footer written next: a file that
			// gets neither leaves its final append for a reader or a
			// reconcile to decide (§7.1).
			_ = s.appendLog(sl, nil, fragment.Block{Kind: fragment.BlockCommit, Timestamp: s.clock.Commit()})
		}
		s.finalizeCurrentFragment(sl)
		s.relinquish(sl)
	}
	return &wire.FinalizeStreamletResponse{RowCount: sl.info.RowCount, Fragments: copyFragments(sl.fragments)}, nil
}

// relinquish is the one transition of a streamlet out of WRITABLE: the
// open fragment closes at its committed size, appends fail with
// STREAMLET_CLOSED from here on, and the next heartbeat reports the
// final state. The server calls it when it finalizes the streamlet and
// whenever it learns the streamlet is no longer its own (§5.6): a write
// that found a fenced file, a fragment it could not create, or an SMS
// answer naming the record FINALIZED. Caller holds sl.mu.
func (s *Server) relinquish(sl *streamlet) {
	if sl.info.State == meta.StreamletFinalized {
		return
	}
	s.abandonCurrentFragment(sl)
	sl.info.State = meta.StreamletFinalized
	s.markDirty(sl.info.ID)
}

func (s *Server) handleStreamletState(_ context.Context, r *wire.StreamletStateRequest) (*wire.StreamletStateResponse, error) {
	sl, found := s.lookup(r.Streamlet)
	if !found {
		return nil, fmt.Errorf("streamserver: %s: unknown streamlet %s", wire.ErrCodeUnknown, r.Streamlet)
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return &wire.StreamletStateResponse{RowCount: sl.info.RowCount, Fragments: copyFragments(sl.fragments)}, nil
}

func copyFragments(fs []*meta.FragmentInfo) []meta.FragmentInfo {
	out := make([]meta.FragmentInfo, len(fs))
	for i, f := range fs {
		out[i] = *f
	}
	return out
}

// ---- heartbeat ----

// HeartbeatNow sends one heartbeat per SMS task covering this server's
// dirty streamlets (or all of them when full is true) and applies the
// response. The production system does this on a timer; the simulation's
// region runner calls it periodically and tests call it directly.
func (s *Server) HeartbeatNow(ctx context.Context, full bool) error {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return errors.New("streamserver: crashed")
	}
	// Coalescing: a delta heartbeat inside the window is skipped whole —
	// the dirty set, deletion acks and table-byte counters all stay
	// queued for the next round. The guard only skips when the clock
	// moved forward but less than the window: a clock jump (now far past
	// lastHB) or any non-monotonic reading always sends, so liveness at
	// the SMS can never lapse because of coalescing. Full heartbeats are
	// never coalesced.
	now := s.clock.Now().Latest
	if c := s.cfg.HeartbeatCoalesce; c > 0 && !full {
		if s.lastHB != 0 && now >= s.lastHB && now.Sub(s.lastHB) < c {
			s.hbCoalesced.Add(1)
			s.mu.Unlock()
			return nil
		}
	}
	s.lastHB = now
	var ids []meta.StreamletID
	if full {
		for id := range s.streamlets {
			ids = append(ids, id)
		}
	} else {
		for id := range s.dirty {
			ids = append(ids, id)
		}
	}
	s.dirty = make(map[meta.StreamletID]bool)
	// Bound the deltas one round carries; the remainder stays dirty.
	// Sorted so the cut is deterministic under the simulation.
	if m := s.cfg.HeartbeatMaxStreamlets; m > 0 && len(ids) > m {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids[m:] {
			s.dirty[id] = true
		}
		ids = ids[:m]
	}
	acks := s.deletedAcks
	s.deletedAcks = nil
	pendingBytes := s.tableBytes
	s.tableBytes = make(map[meta.TableID]int64)
	streamlets := make(map[meta.StreamletID]*streamlet, len(ids))
	for _, id := range ids {
		streamlets[id] = s.streamlets[id]
	}
	s.mu.Unlock()

	// Group by SMS task. Pending deletion acks ride the first request:
	// each names its table, so any task can drop the records.
	byTask := make(map[string]*wire.HeartbeatRequest)
	reqFor := func(addr string) *wire.HeartbeatRequest {
		if byTask[addr] == nil {
			byTask[addr] = &wire.HeartbeatRequest{Server: s.cfg.Addr, FullSnapshot: full, DeletedFragments: acks}
			acks = nil
		}
		return byTask[addr]
	}
	for id, sl := range streamlets {
		sl.mu.Lock()
		hb := wire.StreamletHeartbeat{Info: sl.info, Fragments: copyFragments(sl.fragments)}
		table := sl.info.Table
		sl.mu.Unlock()
		addr, err := s.router.SMSFor(table)
		if err != nil {
			s.markDirty(id)
			continue
		}
		req := reqFor(addr)
		req.Streamlets = append(req.Streamlets, hb)
	}
	// Route accumulated per-table byte counts to each table's owning SMS
	// task so byte-rate admission control sees aggregate throughput —
	// O(tables) entries riding O(servers) heartbeats, never per-stream.
	for table, n := range pendingBytes {
		if n <= 0 {
			continue
		}
		addr, err := s.router.SMSFor(table)
		if err != nil {
			// Re-accumulate for the next round.
			s.mu.Lock()
			s.tableBytes[table] += n
			s.mu.Unlock()
			continue
		}
		req := reqFor(addr)
		if req.TableBytes == nil {
			req.TableBytes = make(map[meta.TableID]int64)
		}
		req.TableBytes[table] += n
	}
	if len(byTask) == 0 {
		// Still report load (and pending deletion acks) so placement and
		// GC stay fresh.
		if addr, err := s.router.SMSFor(""); err == nil {
			reqFor(addr)
		}
	}
	if len(acks) > 0 {
		s.mu.Lock()
		s.deletedAcks = append(s.deletedAcks, acks...)
		s.mu.Unlock()
	}
	var firstErr error
	for addr, req := range byTask {
		resp, err := wire.Heartbeat.Call(ctx, s.net, addr, req)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			for _, hb := range req.Streamlets {
				s.markDirty(hb.Info.ID)
			}
			if len(req.DeletedFragments) > 0 || len(req.TableBytes) > 0 {
				s.mu.Lock()
				s.deletedAcks = append(s.deletedAcks, req.DeletedFragments...)
				// Unacknowledged byte reports roll back so admission
				// control eventually hears about every accepted byte.
				for table, n := range req.TableBytes {
					s.tableBytes[table] += n
				}
				s.mu.Unlock()
			}
			continue
		}
		s.hbSent.Add(1)
		s.applyHeartbeatResponse(resp)
	}
	return firstErr
}

func (s *Server) applyHeartbeatResponse(resp *wire.HeartbeatResponse) {
	// Schema changes propagate to writable streamlets (§5.4.1). The
	// streamlet set is snapshotted first: sl.mu must never be acquired
	// under s.mu, because append handlers hold sl.mu while taking s.mu
	// (markDirty, byte accounting) — the reverse order deadlocks against
	// a concurrent heartbeat.
	if len(resp.Schemas) > 0 {
		s.mu.Lock()
		sls := make([]*streamlet, 0, len(s.streamlets))
		for _, sl := range s.streamlets {
			sls = append(sls, sl)
		}
		s.mu.Unlock()
		for _, sl := range sls {
			sl.mu.Lock()
			// A streamlet created without a schema (a peer may send
			// one) takes the table's.
			if sc, ok := resp.Schemas[sl.info.Table]; ok && (sl.schema == nil || sc.Version > sl.schema.Version) {
				sl.schema = sc
			}
			sl.mu.Unlock()
		}
	}
	// Garbage collection of converted fragments (§5.4.3).
	for _, fid := range resp.DeleteFragments {
		s.collectFragment(fid)
	}
	// Orphaned streamlets: drop local state (the files are the SMS's
	// problem; it told us it does not know them).
	if len(resp.UnknownStreamlets) > 0 {
		s.mu.Lock()
		for _, id := range resp.UnknownStreamlets {
			delete(s.streamlets, id)
		}
		s.mu.Unlock()
	}
	// Streamlets a reconciliation finalized behind this server's back
	// are no longer its own (§5.6).
	for _, id := range resp.FinalizedStreamlets {
		if sl, ok := s.lookup(id); ok {
			sl.mu.Lock()
			s.relinquish(sl)
			sl.mu.Unlock()
		}
	}
	// Shed instructions: reject the listed tables' appends until the
	// deadline. Instructions extend but never shorten an active shed —
	// two SMS tasks may both report the global bucket exhausted.
	if len(resp.ShedTables) > 0 {
		now := s.clock.Now().Latest
		s.mu.Lock()
		for table, d := range resp.ShedTables {
			if d <= 0 {
				continue
			}
			until := now + truetime.Timestamp(d)
			if until > s.shedUntil[table] {
				s.shedUntil[table] = until
			}
		}
		s.mu.Unlock()
	}
}

// SetFileDeleteObserver installs the GC file-deletion callback.
func (s *Server) SetFileDeleteObserver(fn func(paths []string)) {
	s.mu.Lock()
	s.fileDeleteObserver = fn
	s.mu.Unlock()
}

// collectFragment deletes fragment fid's files, drops it from its
// streamlet and queues its ack for the next heartbeat, which names the
// table so the SMS drops the record by key. A fragment this server
// holds no files of is not acked: its record must outlive its files.
func (s *Server) collectFragment(fid meta.FragmentID) {
	id, _ := meta.StreamletOf(fid)
	s.mu.Lock()
	owner := s.streamlets[id]
	obs := s.fileDeleteObserver
	s.mu.Unlock()
	if owner == nil {
		return
	}
	owner.mu.Lock()
	i := slices.IndexFunc(owner.fragments, func(f *meta.FragmentInfo) bool { return f.ID == fid })
	if i < 0 {
		owner.mu.Unlock()
		return
	}
	f, table := owner.fragments[i], owner.info.Table
	owner.fragments = slices.Delete(owner.fragments, i, i+1)
	owner.mu.Unlock()
	for _, cn := range f.Clusters {
		if c := s.region.Blob(cn); c != nil {
			_ = c.Delete(f.Path)
		}
	}
	if obs != nil {
		obs([]string{f.Path})
	}
	s.mu.Lock()
	s.deletedAcks = append(s.deletedAcks, wire.FragmentRef{Table: table, ID: fid})
	s.mu.Unlock()
}

// Stats reports the server's load counters (heartbeats carry them).
type Stats struct {
	AppendOps      int64
	BytesAppended  int64
	DegradedWrites int64
	Streamlets     int
	// ShedAppends counts appends rejected with RESOURCE_EXHAUSTED under
	// an SMS shed instruction (before any durable write).
	ShedAppends int64
	// HeartbeatsSent / HeartbeatsCoalesced count heartbeat rounds that
	// reached an SMS task vs. rounds skipped whole by coalescing.
	HeartbeatsSent      int64
	HeartbeatsCoalesced int64
}

// Stats returns current counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.streamlets)
	s.mu.Unlock()
	return Stats{
		AppendOps:           s.appendOps.Value(),
		BytesAppended:       s.bytesAppended.Value(),
		DegradedWrites:      s.degradedWrites.Value(),
		Streamlets:          n,
		ShedAppends:         s.shedAppends.Value(),
		HeartbeatsSent:      s.hbSent.Value(),
		HeartbeatsCoalesced: s.hbCoalesced.Value(),
	}
}
