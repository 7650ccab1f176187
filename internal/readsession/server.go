package readsession

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"vortex/internal/bigmeta"
	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/query"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// DefaultAddr is the read-session task's transport address in the
// embedded region.
const DefaultAddr = "readsession-0"

// Error codes carried in ReadRowsResponse.Error.
const (
	errCodeUnknownSession = "UNKNOWN_SESSION"
	errCodeSessionClosed  = "SESSION_CLOSED"
)

const (
	// defaultBatchRows bounds rows per record batch; flow control then
	// bounds batches in flight, so a slow reader holds at most a few
	// batches of server memory.
	defaultBatchRows = 512
	// leaseTTL is the session lease duration; the serving loop renews at
	// half-life, so an abandoned session unblocks GC within one TTL.
	leaseTTL  = truetime.Timestamp(30e9)
	maxShards = 64
	// prefetchAhead is how many unserved assignments past the one being
	// scanned the serve loop hands to the disk-tier prefetcher.
	prefetchAhead = 8
)

// ServerStats is a snapshot of the service-side counters.
type ServerStats struct {
	SessionsOpened int64
	BatchesServed  int64
	BytesServed    int64
	Splits         int64
	Resumes        int64
}

// Server is the read-session service: it plans shards with the client
// library's scan substrate (leaf scans ride the read cache for free)
// and serves them over ReadRows streams.
type Server struct {
	addr  string
	net   rpc.Transport
	c     *client.Client
	index *bigmeta.Index // may be nil: planning falls back to inline fragment stats
	clock truetime.Clock

	batchRows int

	sessions metrics.Counter
	batches  metrics.Counter
	bytes    metrics.Counter
	splits   metrics.Counter
	resumes  metrics.Counter

	mu   sync.Mutex
	open map[string]*session
	srv  *rpc.Server
}

type session struct {
	id    string
	table meta.TableID
	plan  *client.ScanPlan
	// pred is the pushed-down row filter compiled for batch evaluation
	// (keeps everything for full scans).
	pred *query.VecPredicate
	// minSeq > 0 serves only rows with storage sequence strictly
	// greater than it (incremental change-stream sessions). Applied at
	// scan staging so shard offsets count only served rows and stay
	// deterministic for checkpoint resume.
	minSeq int64

	leaseID string

	mu           sync.Mutex
	leaseExpires truetime.Timestamp
	closed       bool
	shards       map[string]*shard
	nextShard    int
}

// shard is one independently consumable partition of the session's
// assignments. Offsets are shard-local filtered-row positions over the
// concatenation of its assignments in order — deterministic across
// replays, which is what makes checkpoint resume exact.
type shard struct {
	id string

	mu          sync.Mutex
	assignments []client.Assignment
	counts      []int64 // filtered row count per assignment; -1 unknown
	// frontier is one past the highest assignment index any ReadRows
	// stream has started serving; splits may only move assignments at or
	// beyond it, so served offsets stay valid after a split.
	frontier int
}

// NewServer creates the read-session service and registers it on net at
// addr. The client c is the server's scan substrate (its read cache and
// SMS routing are reused); index, when non-nil, provides Big Metadata
// pruning.
func NewServer(addr string, c *client.Client, index *bigmeta.Index, clock truetime.Clock) *Server {
	if addr == "" {
		addr = DefaultAddr
	}
	s := &Server{
		addr:      addr,
		net:       c.Network(),
		c:         c,
		index:     index,
		clock:     clock,
		batchRows: defaultBatchRows,
		open:      make(map[string]*session),
	}
	srv := rpc.NewServer()
	srv.RegisterUnary(wire.MethodOpenReadSession, s.handleOpen)
	srv.RegisterUnary(wire.MethodCloseReadSession, s.handleClose)
	srv.RegisterUnary(wire.MethodSplitShard, s.handleSplit)
	srv.RegisterStream(wire.MethodReadRows, s.handleReadRows)
	s.srv = srv
	s.net.Register(addr, srv)
	return s
}

// Crash simulates losing the read-session task: its handlers leave the
// network and — unlike the SMS, whose state is all in Spanner — its
// in-memory session registry is lost. Open sessions die with it; their
// leases expire on their own and unblock GC.
func (s *Server) Crash() {
	s.net.Deregister(s.addr)
	s.mu.Lock()
	s.open = make(map[string]*session)
	s.mu.Unlock()
}

// Register re-registers the service's handlers on the network after a
// simulated crash.
func (s *Server) Register() { s.net.Register(s.addr, s.srv) }

// Stats returns a snapshot of the service counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		SessionsOpened: s.sessions.Value(),
		BatchesServed:  s.batches.Value(),
		BytesServed:    s.bytes.Value(),
		Splits:         s.splits.Value(),
		Resumes:        s.resumes.Value(),
	}
}

// SetBatchRows overrides the rows-per-batch bound (tests, benchmarks).
func (s *Server) SetBatchRows(n int) {
	if n > 0 {
		s.batchRows = n
	}
}

// parseWhere parses and resolves a predicate string against the table
// schema by wrapping it in a synthetic SELECT.
func parseWhere(table meta.TableID, where string, sc *schema.Schema) (sql.Expr, error) {
	stmt, err := sql.Parse(fmt.Sprintf("SELECT * FROM %s WHERE %s", table, where))
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.SelectStmt)
	if !ok || sel.Where == nil {
		return nil, fmt.Errorf("readsession: predicate %q did not parse to a WHERE clause", where)
	}
	if err := sql.Resolve(stmt, sc); err != nil {
		return nil, err
	}
	return sel.Where, nil
}

// whereColumns collects the top-level columns a predicate reads, so
// projection pushdown never starves its own filter.
func whereColumns(e sql.Expr, into map[string]bool) {
	switch x := e.(type) {
	case *sql.ColumnRef:
		into[x.Path[0]] = true
	case *sql.Binary:
		whereColumns(x.L, into)
		whereColumns(x.R, into)
	case *sql.Not:
		whereColumns(x.E, into)
	case *sql.IsNull:
		whereColumns(x.E, into)
	case *sql.DateOf:
		whereColumns(x.E, into)
	}
}

func (s *Server) handleOpen(ctx context.Context, req any) (any, error) {
	r := req.(*wire.OpenReadSessionRequest)
	nShards := r.MaxShards
	if nShards <= 0 {
		nShards = 1
	}
	if nShards > maxShards {
		nShards = maxShards
	}

	// Lease before plan: the lease's snapshot is resolved first and the
	// plan is taken at exactly that timestamp, so there is no window in
	// which GC may collect a fragment the plan will reference.
	leaseID, snapTS, leaseExp, err := s.c.AcquireReadLease(ctx, r.Table, r.SnapshotTS, leaseTTL)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (any, error) {
		_ = s.c.ReleaseReadLease(ctx, r.Table, leaseID)
		return nil, err
	}
	plan, err := s.c.Plan(ctx, r.Table, snapTS)
	if err != nil {
		return fail(err)
	}

	var where sql.Expr
	if r.Where != "" {
		where, err = parseWhere(r.Table, r.Where, plan.Schema)
		if err != nil {
			return fail(err)
		}
	}
	if len(r.Columns) > 0 {
		proj := make(map[string]bool, len(r.Columns))
		for _, col := range r.Columns {
			if plan.Schema.Field(col) == nil {
				return fail(fmt.Errorf("readsession: unknown column %q", col))
			}
			proj[col] = true
		}
		if where != nil {
			whereColumns(where, proj)
		}
		plan.Projection = proj
	}

	assignments := plan.Assignments
	resp := &wire.OpenReadSessionResponse{SnapshotTS: plan.SnapshotTS, Schema: plan.Schema, AssignmentsTotal: len(assignments)}
	// Big Metadata pruning, under the same soundness rule as the query
	// engine: never on primary-keyed tables.
	if where != nil && len(plan.Schema.PrimaryKey) == 0 {
		assignments, resp.AssignmentsPrune = query.PruneAssignments(s.index, r.Table, plan.Schema, sql.ExtractPredicates(where), assignments)
	}

	sess := &session{
		id:           meta.RandomHex(8),
		table:        r.Table,
		plan:         plan,
		pred:         query.CompileVecPredicate(where),
		minSeq:       r.MinSeq,
		leaseID:      leaseID,
		leaseExpires: leaseExp,
		shards:       make(map[string]*shard),
	}
	resp.SessionID = sess.id
	for _, sh := range planShards(sess, assignments, nShards) {
		resp.Shards = append(resp.Shards, wire.ShardInfo{ID: sh.id, PlannedRows: plannedRows(sh.assignments)})
	}
	s.mu.Lock()
	s.open[sess.id] = sess
	s.mu.Unlock()
	s.sessions.Add(1)
	return resp, nil
}

// planShards partitions assignments into up to n contiguous shards,
// balancing by known fragment row counts (live tails estimate as one
// fragment's worth of the mean).
func planShards(sess *session, assignments []client.Assignment, n int) []*shard {
	if n > len(assignments) {
		n = len(assignments)
	}
	if n < 1 {
		n = 1
	}
	total := plannedRows(assignments)
	target := total / int64(n)
	var shards []*shard
	newShard := func(as []client.Assignment) *shard {
		sh := &shard{
			id:          fmt.Sprintf("%s/shard-%d", sess.id, sess.nextShard),
			assignments: as,
			counts:      unknownCounts(len(as)),
		}
		sess.nextShard++
		sess.shards[sh.id] = sh
		shards = append(shards, sh)
		return sh
	}
	if len(assignments) == 0 {
		newShard(nil)
		return shards
	}
	var cur []client.Assignment
	var curRows int64
	for i, a := range assignments {
		cur = append(cur, a)
		curRows += assignmentRows(a)
		remainingShards := n - len(shards)
		remainingAssignments := len(assignments) - i - 1
		if (curRows >= target && remainingShards > 1) || remainingAssignments < remainingShards-1 {
			if remainingShards > 1 {
				newShard(cur)
				cur, curRows = nil, 0
			}
		}
	}
	if len(cur) > 0 || len(shards) == 0 {
		newShard(cur)
	}
	return shards
}

func assignmentRows(a client.Assignment) int64 {
	if a.Frag.ID != "" {
		return a.Frag.RowCount
	}
	return 1 // undiscovered live tail: nonzero so it lands in some shard
}

func plannedRows(as []client.Assignment) int64 {
	var total int64
	for _, a := range as {
		total += assignmentRows(a)
	}
	return total
}

func unknownCounts(n int) []int64 {
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = -1
	}
	return counts
}

func (s *Server) lookup(sessionID string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open[sessionID]
}

func (s *Server) handleClose(ctx context.Context, req any) (any, error) {
	r := req.(*wire.CloseReadSessionRequest)
	s.mu.Lock()
	sess := s.open[r.SessionID]
	delete(s.open, r.SessionID)
	s.mu.Unlock()
	if sess != nil {
		sess.mu.Lock()
		sess.closed = true
		sess.mu.Unlock()
		_ = s.c.ReleaseReadLease(ctx, sess.table, sess.leaseID)
	}
	return &wire.CloseReadSessionResponse{}, nil
}

func (s *Server) handleSplit(_ context.Context, req any) (any, error) {
	r := req.(*wire.SplitShardRequest)
	sess := s.lookup(r.SessionID)
	if sess == nil {
		return nil, fmt.Errorf("readsession: %s: session %s", errCodeUnknownSession, r.SessionID)
	}
	sess.mu.Lock()
	sh := sess.shards[r.ShardID]
	sess.mu.Unlock()
	if sh == nil {
		return nil, fmt.Errorf("readsession: unknown shard %s", r.ShardID)
	}

	sh.mu.Lock()
	remaining := len(sh.assignments) - sh.frontier
	if remaining < 1 {
		sh.mu.Unlock()
		return &wire.SplitShardResponse{OK: false}, nil
	}
	cut := sh.frontier + remaining/2
	tailAssignments := append([]client.Assignment(nil), sh.assignments[cut:]...)
	tailCounts := append([]int64(nil), sh.counts[cut:]...)
	sh.assignments = sh.assignments[:cut]
	sh.counts = sh.counts[:cut]
	sh.mu.Unlock()

	sess.mu.Lock()
	newShard := &shard{
		id:          fmt.Sprintf("%s/shard-%d", sess.id, sess.nextShard),
		assignments: tailAssignments,
		counts:      tailCounts,
	}
	sess.nextShard++
	sess.shards[newShard.id] = newShard
	sess.mu.Unlock()
	s.splits.Add(1)
	return &wire.SplitShardResponse{OK: true, NewShard: wire.ShardInfo{ID: newShard.id, PlannedRows: plannedRows(tailAssignments)}}, nil
}

// served is one assignment's filtered scan result staged for a stream:
// the leaf batch with its selection narrowed to the rows to serve
// (explicit, never nil, so chunks slice it by position).
type served struct {
	cb      *client.ColBatch
	pruned  int64 // rows eliminated in code space
	decoded int64 // the other visible rows
}

func (sv *served) count() int { return len(sv.cb.Sel) }

// encode renders the frame for served rows [lo, hi): the identity
// columns (__seq, __arity, __change) followed by the projected data
// columns. Both are the batch's shared vectors re-emitted through the
// chunk's selection — no row round-trip, and nothing copied but the
// frame itself, so a slow reader pins no values of its own.
func (sv *served) encode(lo, hi int) []byte {
	chunk := sv.cb.Sel[lo:hi]
	id := sv.cb.IdentityVectors(chunk)
	id[0].Name, id[1].Name, id[2].Name = colSeq, colArity, colChange
	cols, sel := sv.cb.Vectors(chunk)
	return wire.EncodeVectors(append(id[:], cols...), sel)
}

// scanServed runs the leaf scan for one assignment and stages it for
// serving: the predicate narrows the batch's selection — in code space
// on a ROS fragment's DICT and RLE vectors, so rows a dictionary code or
// a run kills never materialize a value, not at filter time and not at
// encode time — and MinSeq narrows it further by sequence alone.
func (s *Server) scanServed(ctx context.Context, sess *session, a client.Assignment) (*served, error) {
	cb, err := s.c.ScanBatch(ctx, sess.plan, a)
	if err != nil {
		return nil, err
	}
	visible := int64(cb.NumVisible())
	sel, fs, err := sess.pred.Apply(cb)
	if err != nil {
		return nil, err
	}
	if sel == nil {
		sel = wire.SelectAll(cb.NumRows)
	}
	if sess.minSeq > 0 {
		kept := sel[:0:0]
		for _, ri := range sel {
			if cb.Seq(ri) > sess.minSeq {
				kept = append(kept, ri)
			}
		}
		sel = kept
	}
	cb.Sel = sel
	return &served{cb: cb, pruned: fs.PrunedByCode, decoded: visible - fs.PrunedByCode}, nil
}

// renewLease extends the session lease when past its half-life, so GC
// stays blocked for as long as shards are actively served.
func (s *Server) renewLease(ctx context.Context, sess *session) error {
	sess.mu.Lock()
	expires := sess.leaseExpires
	sess.mu.Unlock()
	now := s.clock.Now().Latest
	if expires-now > leaseTTL/2 {
		return nil
	}
	newExp, err := s.c.RenewReadLease(ctx, sess.table, sess.leaseID, leaseTTL)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	sess.leaseExpires = newExp
	sess.mu.Unlock()
	return nil
}

func sendErr(ss rpc.ServerStream, offset int64, code string) error {
	return ss.Send(&wire.ReadRowsResponse{Offset: offset, Error: code})
}

// handleReadRows serves one shard stream from a requested shard-local
// offset. The row sequence a shard serves is deterministic — same
// assignments, same per-assignment scan order, same filter — so a
// reader resuming from a checkpoint sees exactly the suffix it missed.
func (s *Server) handleReadRows(ctx context.Context, ss rpc.ServerStream) error {
	m, err := ss.Recv()
	if err != nil {
		return err
	}
	req, ok := m.(*wire.ReadRowsRequest)
	if !ok {
		return fmt.Errorf("readsession: unexpected stream message %T", m)
	}
	sess := s.lookup(req.SessionID)
	if sess == nil {
		return sendErr(ss, 0, errCodeUnknownSession)
	}
	sess.mu.Lock()
	sh := sess.shards[req.ShardID]
	sess.mu.Unlock()
	if sh == nil {
		return sendErr(ss, 0, errCodeUnknownSession)
	}
	if req.Offset > 0 {
		s.resumes.Add(1)
	}

	from := req.Offset
	offset := int64(0)
	for idx := 0; ; idx++ {
		if sess.isClosed() {
			return sendErr(ss, offset, errCodeSessionClosed)
		}
		if err := s.renewLease(ctx, sess); err != nil {
			return sendErr(ss, offset, leaseErrCode(err))
		}
		sh.mu.Lock()
		if idx >= len(sh.assignments) {
			sh.mu.Unlock()
			return ss.Send(&wire.ReadRowsResponse{Offset: offset, Done: true})
		}
		a := sh.assignments[idx]
		if idx+1 > sh.frontier {
			sh.frontier = idx + 1
		}
		known := sh.counts[idx]
		// Snapshot the next few unserved assignments while holding the
		// lock; the prefetcher warms the disk tier for them while this
		// one is scanned (no-op without a disk tier).
		var upcoming []client.Assignment
		if end := idx + 1 + prefetchAhead; idx+1 < len(sh.assignments) {
			if end > len(sh.assignments) {
				end = len(sh.assignments)
			}
			upcoming = append(upcoming, sh.assignments[idx+1:end]...)
		}
		sh.mu.Unlock()
		if len(upcoming) > 0 {
			s.c.Prefetch(upcoming)
		}

		// A resumed stream skips assignments that are wholly behind the
		// checkpoint without re-scanning them, when their filtered counts
		// are already known from the first pass.
		if known >= 0 && from >= offset+known {
			offset += known
			continue
		}
		sv, err := s.scanServed(ctx, sess, a)
		if err != nil {
			return sendErr(ss, offset, scanErrCode(err))
		}
		n := sv.count()
		sh.mu.Lock()
		sh.counts[idx] = int64(n)
		sh.mu.Unlock()

		start := 0
		if from > offset {
			start = int(from - offset)
		}
		for lo := start; lo < n; lo += s.batchRows {
			hi := lo + s.batchRows
			if hi > n {
				hi = n
			}
			payload := sv.encode(lo, hi)
			resp := &wire.ReadRowsResponse{Offset: offset + int64(lo), RowCount: int64(hi - lo), Batch: payload}
			if lo == start {
				// The assignment's scan accounting rides its first batch.
				resp.RowsPruned = sv.pruned
				resp.RowsDecoded = sv.decoded
			}
			if err := ss.Send(resp); err != nil {
				return err
			}
			s.batches.Add(1)
			s.bytes.Add(int64(len(payload)))
		}
		offset += int64(n)
	}
}

func (sess *session) isClosed() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.closed
}

func leaseErrCode(err error) string {
	if strings.Contains(err.Error(), wire.ErrCodeLeaseExpired) {
		return wire.ErrCodeLeaseExpired
	}
	return err.Error()
}

func scanErrCode(err error) string { return err.Error() }
