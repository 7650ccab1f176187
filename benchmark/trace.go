package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vortex/internal/colossus"
	"vortex/internal/rpc"
)

// span is one timed interval of a traced run. An operation the
// benchmark issues (append, shard drain, statement, refresh) and each
// phase are root spans (Parent 0); every call the program then makes
// through a wrapped seam is a child. Op is the root the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// maxOwners bounds the things that run one operation at a time: client
// streams and reader goroutines.
const maxOwners = 256

// tracer collects spans in memory; nothing is written until the run
// ends. A nil *tracer is the untraced run: the drivers skip every call
// into it and the program is handed its transport and store unwrapped.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	// Spans are kept per owner so that the generators do not meet on one
	// lock; shard 0 also takes the spans that have no owner.
	shards [maxOwners]struct {
		mu    sync.Mutex
		spans []span
	}

	// ambient is the phase span that adopts calls arriving without a
	// context (colossus.Blobs methods take none).
	ambient atomic.Int64
	// current[owner] is the operation now running on that owner. A
	// stream outlives the operation that opened it, so a stream
	// exchange finds its parent here and not in a context.
	current [maxOwners]atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(owner int, s span) {
	if owner < 0 {
		owner = 0
	}
	sh := &t.shards[owner]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// opRef rides the context of an operation into the wrapped transport.
type opRef struct {
	id    int64
	owner int
}

type opKey struct{}

// startOp opens a root span for one operation on owner and returns the
// context to issue it with and the function that closes the span.
func (t *tracer) startOp(ctx context.Context, name string, owner int) (context.Context, func()) {
	id := t.nextID.Add(1)
	start := t.now()
	t.current[owner].Store(id)
	return context.WithValue(ctx, opKey{}, opRef{id: id, owner: owner}), func() {
		t.current[owner].Store(0)
		t.add(owner, span{ID: id, Op: id, Name: name, Start: start, End: t.now()})
	}
}

// startPhase opens a root span that adopts context-less calls until it
// is closed.
func (t *tracer) startPhase(name string) func() {
	id := t.nextID.Add(1)
	start := t.now()
	t.ambient.Store(id)
	return func() {
		t.ambient.Store(0)
		t.add(-1, span{ID: id, Op: id, Name: "phase:" + name, Start: start, End: t.now()})
	}
}

// child records a call made on behalf of parent (0 = the ambient phase)
// by owner (-1 = none).
func (t *tracer) child(owner int, parent int64, name string, start int64) {
	end := t.now()
	if parent == 0 {
		parent = t.ambient.Load()
	}
	if parent == 0 {
		return // set-up or verification traffic, outside every phase
	}
	t.add(owner, span{ID: t.nextID.Add(1), Parent: parent, Op: parent, Name: name, Start: start, End: end})
}

// layerOf names the package that serves a logical transport address.
func layerOf(addr string) string {
	switch {
	case strings.HasPrefix(addr, "sms-"):
		return "sms"
	case strings.HasPrefix(addr, "ss-"):
		return "streamserver"
	case strings.HasPrefix(addr, "readsession"):
		return "readsession"
	case addr == "colossus":
		return "colossusrpc"
	}
	return addr
}

// tracedTransport wraps the rpc.Transport a client, worker or engine is
// given. label separates the seams of one run ("client", "worker").
type tracedTransport struct {
	rpc.Transport
	tr    *tracer
	label string
}

func (t *tracedTransport) name(addr, method string) string {
	return t.label + "/" + layerOf(addr) + ":" + method
}

func (t *tracedTransport) Unary(ctx context.Context, addr, method string, req any) (any, error) {
	start := t.tr.now()
	resp, err := t.Transport.Unary(ctx, addr, method, req)
	ref, ok := ctx.Value(opKey{}).(opRef)
	if !ok {
		ref.owner = -1
	}
	t.tr.child(ref.owner, ref.id, t.name(addr, method), start)
	return resp, err
}

func (t *tracedTransport) OpenStream(ctx context.Context, addr, method string, window int) (rpc.ClientStream, error) {
	cs, err := t.Transport.OpenStream(ctx, addr, method, window)
	if err != nil {
		return nil, err
	}
	owner := -1
	if ref, ok := ctx.Value(opKey{}).(opRef); ok {
		owner = ref.owner
	}
	t.tr.child(owner, 0, t.label+"/rpc:OpenStream", t.tr.now())
	return &tracedStream{ClientStream: cs, tr: t.tr, name: t.name(addr, method) + "/stream", owner: owner}, nil
}

// tracedStream turns each exchange on a bi-directional stream into a
// span, named as the call with "/stream" after it: from the Send that asked to the Recv that answered, or the Recv
// alone when the server is streaming a reply.
type tracedStream struct {
	rpc.ClientStream
	tr      *tracer
	name    string
	owner   int
	pending atomic.Int64 // start of a Send not yet answered
}

func (s *tracedStream) Send(m any) error {
	s.pending.CompareAndSwap(0, s.tr.now())
	return s.ClientStream.Send(m)
}

func (s *tracedStream) Recv() (any, error) {
	start := s.tr.now()
	m, err := s.ClientStream.Recv()
	if sent := s.pending.Swap(0); sent != 0 {
		start = sent
	}
	var parent int64
	if s.owner >= 0 {
		parent = s.tr.current[s.owner].Load()
	}
	s.tr.child(s.owner, parent, s.name, start)
	return m, err
}

// tracedStore wraps the colossus.Store a reading client is given.
type tracedStore struct {
	colossus.Store
	tr *tracer
}

func (s *tracedStore) Blob(name string) colossus.Blobs {
	b := s.Store.Blob(name)
	if b == nil {
		return nil
	}
	return &tracedBlobs{Blobs: b, tr: s.tr}
}

type tracedBlobs struct {
	colossus.Blobs
	tr *tracer
}

func (b *tracedBlobs) Read(path string, off, n int64) ([]byte, error) {
	start := b.tr.now()
	data, err := b.Blobs.Read(path, off, n)
	b.tr.child(-1, 0, "colossus:Read", start)
	return data, err
}

func (b *tracedBlobs) Size(path string) (int64, error) {
	start := b.tr.now()
	n, err := b.Blobs.Size(path)
	b.tr.child(-1, 0, "colossus:Size", start)
	return n, err
}

func (b *tracedBlobs) List(prefix string) ([]string, error) {
	start := b.tr.now()
	l, err := b.Blobs.List(prefix)
	b.tr.child(-1, 0, "colossus:List", start)
	return l, err
}

// wrapNet and wrapStore hand back the seam itself when tr is nil, so an
// untraced run has no wrapper in the call path at all.
func wrapNet(tr *tracer, label string, net rpc.Transport) rpc.Transport {
	if tr == nil {
		return net
	}
	return &tracedTransport{Transport: net, tr: tr, label: label}
}

func wrapStore(tr *tracer, st colossus.Store) colossus.Store {
	if tr == nil {
		return st
	}
	return &tracedStore{Store: st, tr: tr}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	var out []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	return out
}

// spanIndex answers the questions the per-layer metrics ask of a trace.
type spanIndex struct {
	spans    []span
	childSum map[int64]float64 // parent id → summed child milliseconds
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, childSum: make(map[int64]float64)}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.childSum[s.Parent] += s.ms()
		}
	}
	return ix
}

// between returns the index of the spans that started in [from, to).
func (ix *spanIndex) between(from, to int64) *spanIndex {
	var kept []span
	for _, s := range ix.spans {
		if s.Start >= from && s.Start < to {
			kept = append(kept, s)
		}
	}
	return indexSpans(kept)
}

// since returns the index of the spans that started at or after t.
func (ix *spanIndex) since(t int64) *spanIndex { return ix.between(t, math.MaxInt64) }

// matching returns the milliseconds of every span whose name contains
// part.
func (ix *spanIndex) matching(part string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if strings.Contains(s.Name, part) {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, for every root span called name, its duration
// minus the time its children cover.
func (ix *spanIndex) selfTimes(name string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, s.ms()-ix.childSum[s.ID])
		}
	}
	return out
}

// orphans counts spans whose parent is not in the trace.
func (ix *spanIndex) orphans() int {
	ids := make(map[int64]bool, len(ix.spans))
	for _, s := range ix.spans {
		ids[s.ID] = true
	}
	n := 0
	for _, s := range ix.spans {
		if s.Parent != 0 && !ids[s.Parent] {
			n++
		}
	}
	return n
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// writeSpans writes the trace as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
