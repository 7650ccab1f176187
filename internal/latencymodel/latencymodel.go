// Package latencymodel models the latency terms of a Vortex append in the
// production deployment the paper measures: client↔Stream-Server RPC hops,
// synchronous writes to two Colossus clusters (latency is the max of the
// two), a bandwidth term proportional to the batch size, and a rare slow
// tail. Figures 7 and 8 report the resulting distribution (p50 ≈ 10 ms,
// p99 ≈ 30 ms, mild growth with table throughput); the simulation injects
// samples from this model wherever the real system would block on the
// network or the file system, so the reproduced distributions have the
// paper's shape while the correctness paths stay real.
package latencymodel

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// LogNormal is a log-normal duration distribution described by its median
// and the sigma of the underlying normal. Samples are clamped to
// [Floor, Cap] when those are non-zero.
type LogNormal struct {
	Median time.Duration
	Sigma  float64
	Floor  time.Duration
	Cap    time.Duration
}

// Sample draws one duration using rng.
func (ln LogNormal) Sample(rng *rand.Rand) time.Duration {
	if ln.Median <= 0 {
		return 0
	}
	d := time.Duration(float64(ln.Median) * math.Exp(ln.Sigma*rng.NormFloat64()))
	if ln.Floor > 0 && d < ln.Floor {
		d = ln.Floor
	}
	if ln.Cap > 0 && d > ln.Cap {
		d = ln.Cap
	}
	return d
}

// Profile holds every latency term of the simulated deployment. A zero
// Profile means "no injected latency" and is what unit tests use.
type Profile struct {
	// RPCHop is one network hop between the client and a Stream Server
	// (applied once per direction).
	RPCHop LogNormal
	// ColossusWrite is one replicated write inside a single Colossus
	// cluster. A Vortex append blocks on the max of two of these (§5.6).
	ColossusWrite LogNormal
	// ColossusRead is one read from a Colossus cluster.
	ColossusRead LogNormal
	// BytesPerSecond is the per-connection streaming bandwidth used for
	// the size-proportional term of large appends. Zero disables it.
	BytesPerSecond float64
	// TailProbability is the chance that an operation hits a slow path
	// (disk contention, tail retransmit); TailExtra is added when it does.
	TailProbability float64
	TailExtra       LogNormal
	// ConnectionSetup is the cost of establishing a fresh connection;
	// paid by unary calls on pool miss and by bi-di stream creation (§5.4.2).
	ConnectionSetup LogNormal
}

// Zero reports whether the profile injects no latency at all.
func (p Profile) Zero() bool {
	return p.RPCHop.Median == 0 && p.ColossusWrite.Median == 0 &&
		p.ColossusRead.Median == 0 && p.BytesPerSecond == 0 &&
		p.TailProbability == 0 && p.ConnectionSetup.Median == 0
}

// ProductionLike returns the profile tuned to reproduce the shape of the
// paper's Figures 7 and 8: append p50 near 10 ms and p99 near 30 ms, with
// the p99 staying under ~30 ms from <1 MB/s tables up through ≥1 GB/s
// tables (whose batches are larger, paying the bandwidth term).
func ProductionLike() Profile {
	return Profile{
		RPCHop:          LogNormal{Median: 500 * time.Microsecond, Sigma: 0.30, Floor: 100 * time.Microsecond, Cap: 10 * time.Millisecond},
		ColossusWrite:   LogNormal{Median: 6500 * time.Microsecond, Sigma: 0.32, Floor: 2 * time.Millisecond, Cap: 120 * time.Millisecond},
		ColossusRead:    LogNormal{Median: 2 * time.Millisecond, Sigma: 0.35, Floor: 500 * time.Microsecond, Cap: 100 * time.Millisecond},
		BytesPerSecond:  400 << 20, // 400 MB/s effective per-connection path
		TailProbability: 0.015,
		TailExtra:       LogNormal{Median: 9 * time.Millisecond, Sigma: 0.45, Cap: 200 * time.Millisecond},
		ConnectionSetup: LogNormal{Median: 1500 * time.Microsecond, Sigma: 0.25, Cap: 20 * time.Millisecond},
	}
}

// Sampler draws latency samples from a Profile. It is safe for concurrent
// use; each Sampler is deterministic given its seed.
type Sampler struct {
	p   Profile
	mu  sync.Mutex
	rng *rand.Rand
}

// NewSampler returns a Sampler over p seeded with seed.
func NewSampler(p Profile, seed int64) *Sampler {
	return &Sampler{p: p, rng: rand.New(rand.NewSource(seed))}
}

func (s *Sampler) locked(f func(rng *rand.Rand) time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return f(s.rng)
}

// RPCHop samples one network hop.
func (s *Sampler) RPCHop() time.Duration {
	return s.locked(s.p.RPCHop.Sample)
}

// ConnectionSetup samples a fresh-connection establishment.
func (s *Sampler) ConnectionSetup() time.Duration {
	return s.locked(s.p.ConnectionSetup.Sample)
}

// ColossusWrite samples one single-cluster write of size bytes, including
// the bandwidth and tail terms.
func (s *Sampler) ColossusWrite(size int) time.Duration {
	return s.locked(func(rng *rand.Rand) time.Duration {
		d := s.p.ColossusWrite.Sample(rng)
		d += s.transfer(size)
		if s.p.TailProbability > 0 && rng.Float64() < s.p.TailProbability {
			d += s.p.TailExtra.Sample(rng)
		}
		return d
	})
}

// ColossusRead samples one single-cluster read of size bytes.
func (s *Sampler) ColossusRead(size int) time.Duration {
	return s.locked(func(rng *rand.Rand) time.Duration {
		d := s.p.ColossusRead.Sample(rng)
		d += s.transfer(size)
		if s.p.TailProbability > 0 && rng.Float64() < s.p.TailProbability {
			d += s.p.TailExtra.Sample(rng)
		}
		return d
	})
}

func (s *Sampler) transfer(size int) time.Duration {
	if s.p.BytesPerSecond <= 0 || size <= 0 {
		return 0
	}
	return time.Duration(float64(size) / s.p.BytesPerSecond * float64(time.Second))
}

// ReplicatedWrite samples a dual-cluster synchronous write: the append
// returns when both replicas are durable, so latency is the max of two
// independent single-cluster samples (§5.6).
func (s *Sampler) ReplicatedWrite(size int) time.Duration {
	a := s.ColossusWrite(size)
	b := s.ColossusWrite(size)
	if b > a {
		return b
	}
	return a
}

// Sleep blocks for d using the real clock. Zero and negative durations
// return immediately. Centralizing the sleep makes it trivial to audit
// that the simulation's only time dependence is injected model latency.
func Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}
