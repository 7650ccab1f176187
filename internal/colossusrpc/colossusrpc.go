// Package colossusrpc projects a colossus.Region across the transport.
// In the single-process simulation every component shares one *Region by
// pointer; in a multi-process cluster the coordinator owns the region
// and serves it at a logical address, and worker processes hold a Remote
// store that satisfies colossus.Store over unary calls. Real Colossus is
// likewise a network service shared by every Vortex task (§3.2) — the
// proxy keeps the storage layer's single source of truth while letting
// Stream Servers run in their own OS processes.
package colossusrpc

import (
	"context"
	"sync"

	"vortex/internal/colossus"
	"vortex/internal/rpc"
)

// DefaultAddr is the logical transport address the coordinator serves
// the region under.
const DefaultAddr = "colossus"

// blobReq is the single request shape all methods share; each method
// reads the fields it needs.
type blobReq struct {
	Cluster    string
	Path       string
	Data       []byte
	CRC        uint32
	ExpectSize int64
	Off        int64
	N          int64
	Prefix     string
}

type blobResp struct {
	Size  int64
	Data  []byte
	Names []string
	OK    bool
}

// The proxy's methods. They share one request and one response shape.
var (
	blobCreate   = rpc.NewMethod[blobReq, blobResp]("colossus.create")
	blobAppend   = rpc.NewMethod[blobReq, blobResp]("colossus.append")
	blobAppendAt = rpc.NewMethod[blobReq, blobResp]("colossus.appendat")
	blobRead     = rpc.NewMethod[blobReq, blobResp]("colossus.read")
	blobSize     = rpc.NewMethod[blobReq, blobResp]("colossus.size")
	blobExists   = rpc.NewMethod[blobReq, blobResp]("colossus.exists")
	blobList     = rpc.NewMethod[blobReq, blobResp]("colossus.list")
	blobDelete   = rpc.NewMethod[blobReq, blobResp]("colossus.delete")
	listClusters = rpc.NewMethod[blobReq, blobResp]("colossus.clusters")
)

func init() {
	rpc.RegisterErrorCode("colossus.unavailable", colossus.ErrUnavailable)
	rpc.RegisterErrorCode("colossus.notfound", colossus.ErrNotFound)
	rpc.RegisterErrorCode("colossus.exists", colossus.ErrExists)
	rpc.RegisterErrorCode("colossus.checksum", colossus.ErrChecksum)
	rpc.RegisterErrorCode("colossus.injected", colossus.ErrInjected)
	rpc.RegisterErrorCode("colossus.sizemismatch", colossus.ErrSizeMismatch)
}

// Serve registers a unary service exposing the region on net at addr.
func Serve(net rpc.Transport, addr string, region *colossus.Region) {
	srv := rpc.NewServer()
	// serve handles m with op on the blob store of the cluster a request
	// names.
	serve := func(m rpc.Method[blobReq, blobResp], op func(colossus.Blobs, *blobReq) (*blobResp, error)) {
		m.Handle(srv, func(_ context.Context, r *blobReq) (*blobResp, error) {
			b := region.Blob(r.Cluster)
			if b == nil {
				return nil, colossus.ErrUnavailable
			}
			return op(b, r)
		})
	}
	serve(blobCreate, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		return &blobResp{}, b.Create(r.Path)
	})
	serve(blobAppend, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		size, err := b.Append(r.Path, r.Data, r.CRC)
		return &blobResp{Size: size}, err
	})
	serve(blobAppendAt, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		size, err := b.AppendAt(r.Path, r.ExpectSize, r.Data, r.CRC)
		return &blobResp{Size: size}, err
	})
	serve(blobRead, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		data, err := b.Read(r.Path, r.Off, r.N)
		return &blobResp{Data: data}, err
	})
	serve(blobSize, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		size, err := b.Size(r.Path)
		return &blobResp{Size: size}, err
	})
	serve(blobExists, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		return &blobResp{OK: b.Exists(r.Path)}, nil
	})
	serve(blobList, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		names, err := b.List(r.Prefix)
		return &blobResp{Names: names}, err
	})
	serve(blobDelete, func(b colossus.Blobs, r *blobReq) (*blobResp, error) {
		return &blobResp{}, b.Delete(r.Path)
	})
	listClusters.Handle(srv, func(context.Context, *blobReq) (*blobResp, error) {
		return &blobResp{Names: region.ClusterNames()}, nil
	})
	net.Register(addr, srv)
}

// Remote is a colossus.Store whose clusters live in another process.
type Remote struct {
	net  rpc.Transport
	addr string

	mu    sync.Mutex
	names []string
}

// NewRemote returns a Store proxying to the service at addr.
func NewRemote(net rpc.Transport, addr string) *Remote {
	return &Remote{net: net, addr: addr}
}

func (r *Remote) call(m rpc.Method[blobReq, blobResp], req *blobReq) (*blobResp, error) {
	return m.Call(context.Background(), r.net, r.addr, req)
}

// ClusterNames fetches the cluster list (cached after first success).
func (r *Remote) ClusterNames() []string {
	r.mu.Lock()
	cached := r.names
	r.mu.Unlock()
	if cached != nil {
		return append([]string(nil), cached...)
	}
	resp, err := r.call(listClusters, &blobReq{})
	if err != nil {
		return nil
	}
	r.mu.Lock()
	r.names = append([]string(nil), resp.Names...)
	r.mu.Unlock()
	return resp.Names
}

// Blob returns a handle for the named cluster. Existence is validated
// against the fetched cluster list when available; if the list cannot be
// fetched the handle is returned optimistically and individual
// operations surface the error.
func (r *Remote) Blob(name string) colossus.Blobs {
	if names := r.ClusterNames(); names != nil {
		found := false
		for _, n := range names {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return &remoteBlobs{r: r, cluster: name}
}

var _ colossus.Store = (*Remote)(nil)

type remoteBlobs struct {
	r       *Remote
	cluster string
}

var _ colossus.Blobs = (*remoteBlobs)(nil)

func (b *remoteBlobs) Name() string { return b.cluster }

func (b *remoteBlobs) Create(path string) error {
	_, err := b.r.call(blobCreate, &blobReq{Cluster: b.cluster, Path: path})
	return err
}

func (b *remoteBlobs) Append(path string, data []byte, crc uint32) (int64, error) {
	resp, err := b.r.call(blobAppend, &blobReq{Cluster: b.cluster, Path: path, Data: data, CRC: crc})
	if err != nil {
		return 0, err
	}
	return resp.Size, nil
}

func (b *remoteBlobs) AppendAt(path string, expectSize int64, data []byte, crc uint32) (int64, error) {
	resp, err := b.r.call(blobAppendAt, &blobReq{Cluster: b.cluster, Path: path, ExpectSize: expectSize, Data: data, CRC: crc})
	if err != nil {
		return 0, err
	}
	return resp.Size, nil
}

func (b *remoteBlobs) Read(path string, off, n int64) ([]byte, error) {
	resp, err := b.r.call(blobRead, &blobReq{Cluster: b.cluster, Path: path, Off: off, N: n})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

func (b *remoteBlobs) Size(path string) (int64, error) {
	resp, err := b.r.call(blobSize, &blobReq{Cluster: b.cluster, Path: path})
	if err != nil {
		return 0, err
	}
	return resp.Size, nil
}

func (b *remoteBlobs) Exists(path string) bool {
	resp, err := b.r.call(blobExists, &blobReq{Cluster: b.cluster, Path: path})
	return err == nil && resp.OK
}

func (b *remoteBlobs) List(prefix string) ([]string, error) {
	resp, err := b.r.call(blobList, &blobReq{Cluster: b.cluster, Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

func (b *remoteBlobs) Delete(path string) error {
	_, err := b.r.call(blobDelete, &blobReq{Cluster: b.cluster, Path: path})
	return err
}
