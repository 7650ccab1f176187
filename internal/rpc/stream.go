package rpc

import (
	"context"
	"io"
	"sync"
)

// streamPeer is how a stream end reaches the other end of its stream:
// the four moves of the stream protocol and nothing else. A transport is
// a way of carrying them — the in-memory Network calls the peer end
// through a memLink, the TCP transport turns each into a frame (tcpLink)
// and turns arriving frames back into the same four calls on the local
// end, which is itself a streamPeer.
type streamPeer interface {
	// deliver hands the peer one message the sender's window has admitted.
	deliver(m any) error
	// credit returns n bytes the application has taken out of the inbox.
	credit(n int)
	// halfClose tells the peer no further message will be delivered.
	halfClose()
	// reset ends the stream at the peer; a nil err is a clean end.
	reset(err error)
}

// streamEnd is one end of a bi-directional stream, and the only
// implementation of the stream contract in transport.go: both ends of
// both transports are this type. As a ClientStream it is what OpenStream
// returns, as a ServerStream it is what a StreamHandler is given. It
// owns its inbox, the ledger of bytes it has sent that the peer has not
// yet taken, and its terminal state.
type streamEnd struct {
	window int
	peer   streamPeer
	// cancel ends the handler's context when the peer resets a server
	// end; nil at a client end.
	cancel context.CancelFunc
	// accepted receives once when the host accepts a stream opened over
	// TCP; nil everywhere else.
	accepted chan struct{}
	// done is closed when the peer resets this end or the connection
	// under it dies: at a client end, the handler has returned or can no
	// longer be reached. This end failing itself does not close it.
	done     chan struct{}
	doneOnce sync.Once

	mu       sync.Mutex
	cond     *sync.Cond
	inbox    []any // delivered, not yet Recv'd
	queued   int   // bytes in inbox
	unacked  int   // bytes sent that the peer has not credited back
	sendDone bool  // CloseSend was called on this end
	peerDone bool  // the peer half-closed: the inbox gets nothing more
	closed   bool
	err      error // why the end closed; io.EOF for a clean end
}

func newStreamEnd(window int) *streamEnd {
	e := &streamEnd{window: window, done: make(chan struct{})}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// fail closes this end with err (nil: cleanly) and wakes everything
// blocked on it. The first cause wins.
func (e *streamEnd) fail(err error) {
	if err == nil {
		err = io.EOF
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Send transmits one message to the peer, blocking while the
// flow-control window is exhausted — this is how the Stream Server
// "throttles incoming appends when there is a large amount of data
// in-flight" (§5.4.2), and how a slow reader of a record-batch stream
// throttles the server.
func (e *streamEnd) Send(m any) error {
	size := sizeOf(m)
	e.mu.Lock()
	// The window bounds *buffered* bytes, HTTP/2-style: a message larger
	// than the whole window is still admitted once nothing else is in
	// flight, so an undersized window degrades to lock-step transfer
	// instead of wedging the stream.
	for !e.closed && !e.sendDone && e.unacked+size > e.window && e.unacked > 0 {
		e.cond.Wait()
	}
	if e.closed || e.sendDone {
		err := e.err
		e.mu.Unlock()
		if err == nil || err == io.EOF {
			err = ErrClosed
		}
		return err
	}
	e.unacked += size
	e.mu.Unlock()
	if err := e.peer.deliver(m); err != nil {
		e.credit(size) // the message never left
		return err
	}
	return nil
}

// Recv returns the next message from the peer and returns its
// flow-control credit. With the inbox drained it reports why nothing
// more will come: io.EOF after the peer's half-close or a clean end,
// otherwise the error the stream ended with.
func (e *streamEnd) Recv() (any, error) {
	e.mu.Lock()
	for len(e.inbox) == 0 && !e.closed && !e.peerDone {
		e.cond.Wait()
	}
	if len(e.inbox) == 0 {
		err := e.err
		e.mu.Unlock()
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	// Clear the slot and let go of a drained queue's array, so a delivered
	// message (a multi-megabyte read batch, say) is not kept reachable by
	// the queue it has left.
	m := e.inbox[0]
	e.inbox[0] = nil
	if e.inbox = e.inbox[1:]; len(e.inbox) == 0 {
		e.inbox = nil
	}
	size := sizeOf(m)
	e.queued -= size
	e.mu.Unlock()
	e.peer.credit(size)
	return m, nil
}

// CloseSend signals that this end will send no more; the peer's Recv
// returns io.EOF after draining.
func (e *streamEnd) CloseSend() {
	e.mu.Lock()
	tell := !e.sendDone && !e.closed
	e.sendDone = true
	e.cond.Broadcast()
	e.mu.Unlock()
	if tell {
		e.peer.halfClose()
	}
}

// Close tears the stream down and waits for the handler to return.
func (e *streamEnd) Close() {
	e.fail(ErrClosed)
	e.peer.reset(nil)
	<-e.done
}

// Err returns the end's terminal error, if any (io.EOF for a clean
// handler completion).
func (e *streamEnd) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// InflightBytes reports the bytes delivered to this end and not yet
// Recv'd — what the peer's window is charged for.
func (e *streamEnd) InflightBytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queued
}

// watch resets the stream, on both ends, if the context it was opened
// under ends before the stream does.
func (e *streamEnd) watch(ctx context.Context) {
	select {
	case <-ctx.Done():
		err := context.Cause(ctx)
		e.fail(err)
		e.peer.reset(err)
	case <-e.done:
	}
}

// serve runs h on this (server) end and reports its return to both ends.
func (e *streamEnd) serve(ctx context.Context, h StreamHandler) {
	err := h(ctx, e)
	e.cancel()
	e.fail(err) // a Send or Recv the handler left behind fails rather than touch a finished stream
	e.peer.reset(err)
}

// The four moves as they arrive from the peer.

func (e *streamEnd) deliver(m any) error {
	e.mu.Lock()
	e.inbox = append(e.inbox, m)
	e.queued += sizeOf(m)
	e.cond.Broadcast()
	e.mu.Unlock()
	return nil
}

func (e *streamEnd) credit(n int) {
	e.mu.Lock()
	// Never below zero: a remote peer sizes a message after decoding it
	// and may return more than this end charged.
	e.unacked = max(e.unacked-n, 0)
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *streamEnd) halfClose() {
	e.mu.Lock()
	e.peerDone = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *streamEnd) reset(err error) {
	e.fail(err)
	if e.cancel != nil {
		e.cancel()
	}
	e.doneOnce.Do(func() { close(e.done) })
}
