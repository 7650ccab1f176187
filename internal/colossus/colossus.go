// Package colossus simulates Google's Colossus distributed file system
// as Vortex uses it: a set of independent clusters, each providing
// durable append-only files with CRC-verified writes (§3.2, §5.4.5).
//
// Vortex's Stream Servers write every fragment synchronously to two
// clusters (§5.6); readers read fragments directly from whichever
// cluster is reachable (§7.1). The simulation therefore provides exactly
// the failure surface those paths exercise: per-cluster unavailability,
// injected write failures, checksum rejection, and injected latency from
// the latency model. Within a cluster, files are durable by fiat (real
// Colossus replicates inside the cluster; that layer is below Vortex's
// failure model).
package colossus

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"vortex/internal/blockenc"
	"vortex/internal/latencymodel"
	"vortex/internal/metrics"
)

// Chaos injects scheduled failures at the cluster cut-points (satisfied
// by *chaos.Schedule; wired by internal/core).
type Chaos interface {
	Inject(ctx context.Context, point, target string) error
}

// Cut-point names used by this package. The target is the cluster name.
const (
	ChaosPointWrite = "colossus.write"
	ChaosPointRead  = "colossus.read"
)

// Errors returned by cluster operations.
var (
	ErrUnavailable = errors.New("colossus: cluster unavailable")
	ErrNotFound    = errors.New("colossus: file not found")
	ErrExists      = errors.New("colossus: file already exists")
	ErrChecksum    = errors.New("colossus: checksum mismatch")
	ErrInjected    = errors.New("colossus: injected write failure")
)

// Region is a set of named Colossus clusters (a BigQuery region contains
// two or more, §5.1).
type Region struct {
	mu       sync.RWMutex
	clusters map[string]*Cluster
	order    []string
}

// NewRegion creates a region with the given cluster names.
func NewRegion(clusterNames ...string) *Region {
	r := &Region{clusters: make(map[string]*Cluster, len(clusterNames))}
	for _, n := range clusterNames {
		if _, dup := r.clusters[n]; dup {
			panic(fmt.Sprintf("colossus: duplicate cluster %q", n))
		}
		r.clusters[n] = newCluster(n)
		r.order = append(r.order, n)
	}
	return r
}

// Cluster returns the named cluster, or nil if it does not exist.
func (r *Region) Cluster(name string) *Cluster {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.clusters[name]
}

// ClusterNames returns the cluster names in creation order.
func (r *Region) ClusterNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// SetSampler installs a latency sampler on every cluster in the region.
func (r *Region) SetSampler(s *latencymodel.Sampler) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.clusters {
		c.SetSampler(s)
	}
}

// SetChaos installs a fault-injection schedule on every cluster.
func (r *Region) SetChaos(ch Chaos) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.clusters {
		c.SetChaos(ch)
	}
}

// Stats aggregates operation counters across the region's clusters.
type Stats struct {
	WriteOps     int64
	ReadOps      int64
	BytesWritten int64
	BytesRead    int64
}

// Stats returns region-wide counters.
func (r *Region) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Stats
	for _, c := range r.clusters {
		cs := c.Stats()
		s.WriteOps += cs.WriteOps
		s.ReadOps += cs.ReadOps
		s.BytesWritten += cs.BytesWritten
		s.BytesRead += cs.BytesRead
	}
	return s
}

// Cluster is one Colossus cluster: a namespace of append-only files.
type Cluster struct {
	name string

	mu    sync.RWMutex
	files map[string]*file

	stateMu        sync.Mutex
	available      bool
	failNextWrites int

	sampler *latencymodel.Sampler
	chaos   Chaos

	writeOps     metrics.Counter
	readOps      metrics.Counter
	bytesWritten metrics.Counter
	bytesRead    metrics.Counter
}

type file struct {
	mu   sync.RWMutex
	data []byte
}

func newCluster(name string) *Cluster {
	return &Cluster{name: name, files: make(map[string]*file), available: true}
}

// Name returns the cluster's name.
func (c *Cluster) Name() string { return c.name }

// SetSampler installs the latency sampler used for read/write latency
// injection. A nil sampler (the default) injects nothing.
func (c *Cluster) SetSampler(s *latencymodel.Sampler) {
	c.stateMu.Lock()
	c.sampler = s
	c.stateMu.Unlock()
}

// SetAvailable marks the whole cluster reachable or unreachable. An
// unavailable cluster fails every operation with ErrUnavailable — the
// "cluster is unavailable" disaster case of §5.6.
func (c *Cluster) SetAvailable(v bool) {
	c.stateMu.Lock()
	c.available = v
	c.stateMu.Unlock()
}

// FailNextWrites makes the next n Append calls fail with ErrInjected,
// modelling transient IO errors that force fragment rotation (§5.3).
func (c *Cluster) FailNextWrites(n int) {
	c.stateMu.Lock()
	c.failNextWrites = n
	c.stateMu.Unlock()
}

// Stats returns this cluster's operation counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		WriteOps:     c.writeOps.Value(),
		ReadOps:      c.readOps.Value(),
		BytesWritten: c.bytesWritten.Value(),
		BytesRead:    c.bytesRead.Value(),
	}
}

// SetChaos installs a fault-injection schedule. A nil schedule (the
// default) injects nothing.
func (c *Cluster) SetChaos(ch Chaos) {
	c.stateMu.Lock()
	c.chaos = ch
	c.stateMu.Unlock()
}

// checkUp returns the sampler and any availability error, consuming one
// injected write failure if consume is set and evaluating the chaos
// schedule's write/read cut-point.
func (c *Cluster) checkUp(consumeWriteFault bool) (*latencymodel.Sampler, error) {
	c.stateMu.Lock()
	if !c.available {
		c.stateMu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, c.name)
	}
	if consumeWriteFault && c.failNextWrites > 0 {
		c.failNextWrites--
		c.stateMu.Unlock()
		return nil, fmt.Errorf("%w on %s", ErrInjected, c.name)
	}
	sampler, chaos := c.sampler, c.chaos
	c.stateMu.Unlock()
	if chaos != nil {
		point := ChaosPointRead
		if consumeWriteFault {
			point = ChaosPointWrite
		}
		if err := chaos.Inject(context.Background(), point, c.name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
	return sampler, nil
}

// Create creates an empty file. It fails if the file exists.
func (c *Cluster) Create(path string) error {
	if _, err := c.checkUp(false); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	c.files[path] = &file{}
	return nil
}

// Append durably appends data to the file, verifying the supplied CRC32C
// first — Colossus "will ultimately discover [corruption] and fail the
// write" (§5.4.5). It returns the file's new size. Appending to a
// missing file creates it (log files are created by their first write).
func (c *Cluster) Append(path string, data []byte, crc uint32) (int64, error) {
	sampler, err := c.checkUp(true)
	if err != nil {
		return 0, err
	}
	if blockenc.Checksum(data) != crc {
		return 0, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	if sampler != nil {
		latencymodel.Sleep(sampler.ColossusWrite(len(data)))
	}
	c.mu.Lock()
	f, ok := c.files[path]
	if !ok {
		f = &file{}
		c.files[path] = f
	}
	c.mu.Unlock()
	f.mu.Lock()
	f.data = append(f.data, data...)
	size := int64(len(f.data))
	f.mu.Unlock()
	c.writeOps.Add(1)
	c.bytesWritten.Add(int64(len(data)))
	return size, nil
}

// ErrSizeMismatch is returned by AppendAt when the file's current size
// differs from the caller's expectation — the single-writer assumption
// was violated (e.g. a reconciliation sentinel poisoned the file, §5.6).
var ErrSizeMismatch = errors.New("colossus: conditional append size mismatch")

// AppendAt is a conditional append: it succeeds only if the file's
// current size equals expectSize (creating the file when expectSize is
// 0). Stream Servers use it for every log-file write so that a zombie
// writer — one that lost ownership while partitioned — fails its next
// write instead of corrupting the log.
func (c *Cluster) AppendAt(path string, expectSize int64, data []byte, crc uint32) (int64, error) {
	sampler, err := c.checkUp(true)
	if err != nil {
		return 0, err
	}
	if blockenc.Checksum(data) != crc {
		return 0, fmt.Errorf("%w: %s", ErrChecksum, path)
	}
	if sampler != nil {
		latencymodel.Sleep(sampler.ColossusWrite(len(data)))
	}
	c.mu.Lock()
	f, ok := c.files[path]
	if !ok {
		if expectSize != 0 {
			c.mu.Unlock()
			return 0, fmt.Errorf("%w: %s does not exist, expected size %d", ErrSizeMismatch, path, expectSize)
		}
		f = &file{}
		c.files[path] = f
	}
	c.mu.Unlock()
	f.mu.Lock()
	if int64(len(f.data)) != expectSize {
		size := int64(len(f.data))
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %s is %d bytes, expected %d", ErrSizeMismatch, path, size, expectSize)
	}
	f.data = append(f.data, data...)
	size := int64(len(f.data))
	f.mu.Unlock()
	c.writeOps.Add(1)
	c.bytesWritten.Add(int64(len(data)))
	return size, nil
}

func (c *Cluster) lookup(path string) (*file, error) {
	c.mu.RLock()
	f, ok := c.files[path]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return f, nil
}

// Read returns n bytes at offset off. If n is negative, it reads to the
// end of the file. Short ranges past EOF return what exists.
func (c *Cluster) Read(path string, off int64, n int64) ([]byte, error) {
	sampler, err := c.checkUp(false)
	if err != nil {
		return nil, err
	}
	f, err := c.lookup(path)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	size := int64(len(f.data))
	if off < 0 || off > size {
		f.mu.RUnlock()
		return nil, fmt.Errorf("colossus: read offset %d outside file %s (size %d)", off, path, size)
	}
	end := size
	if n >= 0 && off+n < size {
		end = off + n
	}
	out := append([]byte(nil), f.data[off:end]...)
	f.mu.RUnlock()
	if sampler != nil {
		latencymodel.Sleep(sampler.ColossusRead(len(out)))
	}
	c.readOps.Add(1)
	c.bytesRead.Add(int64(len(out)))
	return out, nil
}

// Size returns the file's current size.
func (c *Cluster) Size(path string) (int64, error) {
	if _, err := c.checkUp(false); err != nil {
		return 0, err
	}
	f, err := c.lookup(path)
	if err != nil {
		return 0, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data)), nil
}

// Exists reports whether the file exists (false if the cluster is down).
func (c *Cluster) Exists(path string) bool {
	if _, err := c.checkUp(false); err != nil {
		return false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.files[path]
	return ok
}

// List returns the paths with the given prefix, sorted.
func (c *Cluster) List(prefix string) ([]string, error) {
	if _, err := c.checkUp(false); err != nil {
		return nil, err
	}
	c.mu.RLock()
	var out []string
	for p := range c.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// Delete removes the file. Deleting a missing file succeeds (garbage
// collection is idempotent, §5.4.3).
func (c *Cluster) Delete(path string) error {
	if _, err := c.checkUp(false); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.files, path)
	c.mu.Unlock()
	return nil
}
