package clusterd

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/colossusrpc"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/rpc"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

// countingProxy forwards every connection it accepts to target and
// counts them.
func countingProxy(t *testing.T, target string) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int32
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			go func() { io.Copy(up, down); up.Close() }()
			go func() { io.Copy(down, up); down.Close() }()
		}
	}()
	return ln.Addr().String(), &accepted
}

// TestMistypedMessagesAreRefusedOverTCP sends every method each cluster
// host serves a message of another registered type, then none, over
// real sockets. Each must be refused with rpc.ErrBadMessage — not kill
// the host, which for the SMS, the read-session server and the Colossus
// proxy is the coordinator — and the host must go on serving the same
// connection.
func TestMistypedMessagesAreRefusedOverTCP(t *testing.T) {
	cl := startTCPCluster(t, client.DefaultOptions())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	table := meta.TableID("t.badmessage")
	if err := cl.client.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		t.Fatal(err)
	}
	smsAddr, err := Router(2).SMSFor(table)
	if err != nil {
		t.Fatal(err)
	}

	coordProxy, coordConns := countingProxy(t, cl.coordTr.ListenAddr())
	workerProxy, workerConns := countingProxy(t, cl.workerTr.ListenAddr())
	probe := rpc.NewTCPTransport()
	t.Cleanup(func() { probe.Close() })
	probe.AddRoutes(map[string]string{
		colossusrpc.DefaultAddr: coordProxy, readsession.DefaultAddr: coordProxy, smsAddr: coordProxy,
		"ss-alpha-w0-0": workerProxy,
	})

	hosts := []struct {
		addr    string
		methods []string
		// serve is a well-formed call the host must answer afterwards.
		serve func() error
	}{
		{smsAddr, []string{
			wire.MethodCreateTable, wire.MethodGetTable, wire.MethodUpdateSchema,
			wire.MethodCreateStream, wire.MethodGetStream, wire.MethodGetWritableStreamlet,
			wire.MethodFlushStream, wire.MethodFinalizeStream, wire.MethodBatchCommit,
			wire.MethodHeartbeat, wire.MethodReadView, wire.MethodReconcile,
			wire.MethodDegradeStreamlet, wire.MethodRegisterConversion, wire.MethodConversionCandidates,
			wire.MethodCommitDML, wire.MethodBeginDML, wire.MethodEndDML, wire.MethodGC,
			wire.MethodAcquireLease, wire.MethodRenewLease, wire.MethodReleaseLease,
		}, func() error {
			_, err := wire.GetTable.Call(ctx, probe, smsAddr, &wire.GetTableRequest{Table: table})
			return err
		}},
		{"ss-alpha-w0-0", []string{
			wire.MethodCreateStreamlet, wire.MethodAppend, wire.MethodFlush,
			wire.MethodFinalizeStreamlet, wire.MethodStreamletState,
		}, func() error {
			_, err := wire.CreateStreamlet.Call(ctx, probe, "ss-alpha-w0-0", &wire.CreateStreamletRequest{
				Info: meta.StreamletInfo{ID: "sl-badmessage", Table: table},
			})
			return err
		}},
		{readsession.DefaultAddr, []string{
			wire.MethodOpenReadSession, wire.MethodCloseReadSession, wire.MethodSplitShard,
		}, func() error {
			_, err := wire.CloseReadSession.Call(ctx, probe, readsession.DefaultAddr, &wire.CloseReadSessionRequest{SessionID: "none"})
			return err
		}},
		{colossusrpc.DefaultAddr, []string{
			"colossus.create", "colossus.append", "colossus.appendat", "colossus.read", "colossus.size",
			"colossus.exists", "colossus.list", "colossus.delete", "colossus.clusters",
		}, func() error {
			if colossusrpc.NewRemote(probe, colossusrpc.DefaultAddr).ClusterNames() == nil {
				return errors.New("no cluster names")
			}
			return nil
		}},
	}
	// ReadRows is a stream method only, so its request is a registered
	// type no unary method takes.
	wrong := &wire.ReadRowsRequest{SessionID: "wrong"}
	for _, h := range hosts {
		for _, method := range h.methods {
			for _, m := range []any{wrong, nil} {
				if _, err := probe.Unary(ctx, h.addr, method, m); !errors.Is(err, rpc.ErrBadMessage) {
					t.Fatalf("%s/%s given %T: want rpc.ErrBadMessage, got %v", h.addr, method, m, err)
				}
			}
		}
		if err := h.serve(); err != nil {
			t.Fatalf("%s after the bad calls: %v", h.addr, err)
		}
	}

	// The first message of each stream method.
	streams := []struct {
		addr, method string
		wrong        any
	}{
		{"ss-alpha-w0-0", wire.Append.Name(), &wire.ReadRowsRequest{}},
		{readsession.DefaultAddr, wire.ReadRows.Name(), &wire.AppendRequest{}},
	}
	for _, s := range streams {
		for _, m := range []any{s.wrong, nil} {
			cs, err := probe.OpenStream(ctx, s.addr, s.method, 1<<20)
			if err != nil {
				t.Fatalf("open %s/%s: %v", s.addr, s.method, err)
			}
			if err := cs.Send(m); err != nil {
				t.Fatalf("send to %s/%s: %v", s.addr, s.method, err)
			}
			if _, err := cs.Recv(); !errors.Is(err, rpc.ErrBadMessage) {
				t.Fatalf("%s/%s stream given %T: want rpc.ErrBadMessage, got %v", s.addr, s.method, m, err)
			}
			cs.Close()
		}
	}
	for _, h := range hosts {
		if err := h.serve(); err != nil {
			t.Fatalf("%s after the bad streams: %v", h.addr, err)
		}
	}
	if n, m := coordConns.Load(), workerConns.Load(); n != 1 || m != 1 {
		t.Fatalf("connections to the coordinator %d and the worker %d, want 1 each: a bad message cost a connection", n, m)
	}
}
