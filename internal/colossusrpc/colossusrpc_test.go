package colossusrpc

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/colossus"
	"vortex/internal/rpc"
)

// TestRemoteStore serves a region and drives it through a Remote over
// both transports. The in-memory network hands the server's error value
// to the caller; the TCP transport has to rebuild it from the codes
// init() registers, which is what the sentinel cases pin.
func TestRemoteStore(t *testing.T) {
	transports := []struct {
		name string
		dial func(t *testing.T, region *colossus.Region) *Remote
	}{
		{"mem", func(t *testing.T, region *colossus.Region) *Remote {
			net := rpc.NewNetwork(nil)
			Serve(net, DefaultAddr, region)
			return NewRemote(net, DefaultAddr)
		}},
		{"tcp", func(t *testing.T, region *colossus.Region) *Remote {
			srv, cli := rpc.NewTCPTransport(), rpc.NewTCPTransport()
			t.Cleanup(func() { cli.Close(); srv.Close() })
			hostport, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			Serve(srv, DefaultAddr, region)
			cli.AddRoutes(map[string]string{DefaultAddr: hostport})
			return NewRemote(cli, DefaultAddr)
		}},
	}
	hello, world := []byte("hello "), []byte("world")

	sentinels := []struct {
		want    error
		provoke func(b colossus.Blobs, cl *colossus.Cluster) error
	}{
		{colossus.ErrNotFound, func(b colossus.Blobs, _ *colossus.Cluster) error {
			_, err := b.Read("d/missing", 0, -1)
			return err
		}},
		{colossus.ErrExists, func(b colossus.Blobs, _ *colossus.Cluster) error {
			if err := b.Create("d/twice"); err != nil {
				return err
			}
			return b.Create("d/twice")
		}},
		{colossus.ErrChecksum, func(b colossus.Blobs, _ *colossus.Cluster) error {
			_, err := b.Append("d/crc", hello, blockenc.Checksum(hello)+1)
			return err
		}},
		{colossus.ErrSizeMismatch, func(b colossus.Blobs, _ *colossus.Cluster) error {
			_, err := b.AppendAt("d/zombie", 999, hello, blockenc.Checksum(hello))
			return err
		}},
		{colossus.ErrUnavailable, func(b colossus.Blobs, cl *colossus.Cluster) error {
			cl.SetAvailable(false)
			defer cl.SetAvailable(true)
			_, err := b.Size("d/f")
			return err
		}},
		{colossus.ErrInjected, func(b colossus.Blobs, cl *colossus.Cluster) error {
			cl.FailNextWrites(1)
			_, err := b.Append("d/f", hello, blockenc.Checksum(hello))
			return err
		}},
	}

	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			region := colossus.NewRegion("alpha", "beta")
			remote := tr.dial(t, region)

			if got := remote.ClusterNames(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
				t.Fatalf("ClusterNames = %v", got)
			}
			if remote.Blob("nope") != nil {
				t.Fatal(`Blob("nope") returned a handle for a cluster the region does not have`)
			}
			b := remote.Blob("alpha")
			if b == nil {
				t.Fatal(`Blob("alpha") = nil`)
			}

			if err := b.Create("d/f"); err != nil {
				t.Fatal(err)
			}
			if !b.Exists("d/f") || b.Exists("d/g") {
				t.Fatal("Exists disagrees with Create")
			}
			if size, err := b.Append("d/f", hello, blockenc.Checksum(hello)); err != nil || size != 6 {
				t.Fatalf("Append = %d, %v", size, err)
			}
			if size, err := b.AppendAt("d/f", 6, world, blockenc.Checksum(world)); err != nil || size != 11 {
				t.Fatalf("AppendAt = %d, %v", size, err)
			}
			if data, err := b.Read("d/f", 0, -1); err != nil || !bytes.Equal(data, []byte("hello world")) {
				t.Fatalf("Read all = %q, %v", data, err)
			}
			if data, err := b.Read("d/f", 6, 3); err != nil || !bytes.Equal(data, []byte("wor")) {
				t.Fatalf("Read range = %q, %v", data, err)
			}
			if size, err := b.Size("d/f"); err != nil || size != 11 {
				t.Fatalf("Size = %d, %v", size, err)
			}
			if err := b.Create("e/other"); err != nil {
				t.Fatal(err)
			}
			if names, err := b.List("d/"); err != nil || !reflect.DeepEqual(names, []string{"d/f"}) {
				t.Fatalf("List = %v, %v", names, err)
			}
			// What went through the proxy is what the region holds, in the
			// named cluster only.
			if data, err := region.Cluster("alpha").Read("d/f", 0, -1); err != nil || !bytes.Equal(data, []byte("hello world")) {
				t.Fatalf("region side = %q, %v", data, err)
			}
			if region.Cluster("beta").Exists("d/f") {
				t.Fatal("write to alpha landed in beta")
			}
			if err := b.Delete("d/f"); err != nil {
				t.Fatal(err)
			}
			if b.Exists("d/f") {
				t.Fatal("file survives Delete")
			}

			for _, s := range sentinels {
				err := s.provoke(b, region.Cluster("alpha"))
				if !errors.Is(err, s.want) {
					t.Errorf("got %v, want errors.Is(%v)", err, s.want)
				}
				for _, other := range sentinels {
					if other.want != s.want && errors.Is(err, other.want) {
						t.Errorf("%v also matches %v", err, other.want)
					}
				}
			}
		})
	}
}
