package optimizer

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/core"
	"vortex/internal/schema"
	"vortex/internal/wire"
)

// countWrites is a colossus.Chaos that lets everything through and
// counts the writes.
type countWrites struct{ n atomic.Int32 }

func (c *countWrites) Inject(_ context.Context, point, _ string) error {
	if point == colossus.ChaosPointWrite {
		c.n.Add(1)
	}
	return nil
}

// TestEncodeFailureWritesNothing: files are encoded on workers and
// written only once every one has encoded, so a value the writer refuses
// in any file — the first, one in the middle, the last — costs no
// Colossus write at all, on a pool of one worker or of four.
func TestEncodeFailureWritesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := core.NewRegion(core.DefaultConfig())
	o := New(DefaultConfig(), r.NewClient(client.DefaultOptions()), r.Net, r.Router(), r.Colossus, r.Clock)
	writes := &countWrites{}
	for _, name := range r.Colossus.ClusterNames() {
		r.Colossus.Cluster(name).SetChaos(writes)
	}
	sc := &schema.Schema{Fields: []*schema.Field{{Name: "id", Kind: schema.KindInt64, Mode: schema.Required}}}
	const files, perFile = 6, 10
	clusters := o.placement([2]string{r.Colossus.ClusterNames()[0], r.Colossus.ClusterNames()[0]})
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for bad := range files {
			rs := &rowSet{}
			var vals []schema.Value
			var perm []int32
			var cuts []int
			for i := range files * perFile {
				v := schema.Int64(int64(i))
				if i == bad*perFile+perFile/2 {
					v = schema.String("not an id")
				}
				vals = append(vals, v)
				rs.seqs = append(rs.seqs, int64(i+1))
				rs.changes = append(rs.changes, byte(schema.ChangeInsert))
				perm = append(perm, int32(i))
				if (i+1)%perFile == 0 {
					cuts = append(cuts, i+1)
				}
			}
			rs.cols = []wire.Vector{wire.PlainVector("id", vals)}
			infos, err := o.writeFiles("d.enc", sc, rs, perm, cuts, clusters)
			if err == nil || !strings.Contains(err.Error(), "expects") || infos != nil {
				t.Fatalf("procs %d, bad file %d: writeFiles = %v, %v; want the encode error", procs, bad, infos, err)
			}
			if n := writes.n.Load(); n != 0 {
				t.Fatalf("procs %d, bad file %d: %d Colossus writes before the encode error", procs, bad, n)
			}
		}
	}
}
