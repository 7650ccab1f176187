package sms

import (
	"errors"
	"sort"
	"sync"
)

// Placer chooses a Stream Server for a new streamlet. The paper places
// "based on load and health characteristics" (§5.2); this one knows
// health only — a server is live or dead, its home cluster in or out of
// a scheduled outage — and spreads by count: the live server that has
// been handed the fewest streamlets so far wins, ties going to the
// lowest address. No load signal reaches it (heartbeats carry none), so
// a server whose streamlets are hot and one whose streamlets are idle
// look alike. The replica pair is the server's home cluster plus the
// next cluster in the region (§5.6). One implementation serves the
// in-process region and the multi-process coordinator alike.
type Placer struct {
	mu       sync.Mutex
	clusters []string
	servers  map[string]*placedServer
	// chaos, when set, names the clusters in a scheduled outage; the
	// multi-process cluster injects none and leaves it nil.
	chaos interface{ ClusterOut(cluster string) bool }
}

type placedServer struct {
	cluster    string
	dead       bool
	placements int
}

// NewPlacer returns a placer over the region's clusters with no servers.
func NewPlacer(clusters []string) *Placer {
	return &Placer{clusters: clusters, servers: make(map[string]*placedServer)}
}

// AddServer registers a Stream Server homed in cluster.
func (p *Placer) AddServer(addr, cluster string) {
	p.mu.Lock()
	p.servers[addr] = &placedServer{cluster: cluster}
	p.mu.Unlock()
}

// SetDead marks a server crashed (never picked) or restarted.
func (p *Placer) SetDead(addr string, dead bool) {
	p.mu.Lock()
	if s, ok := p.servers[addr]; ok {
		s.dead = dead
	}
	p.mu.Unlock()
}

// SetChaos makes placement avoid clusters the schedule reports out.
func (p *Placer) SetChaos(s interface{ ClusterOut(cluster string) bool }) {
	p.mu.Lock()
	p.chaos = s
	p.mu.Unlock()
}

func (p *Placer) clusterOut(cluster string) bool {
	return p.chaos != nil && p.chaos.ClusterOut(cluster)
}

// Pick returns a stream server address and the two Colossus clusters
// its writes replicate to, avoiding exclude.
func (p *Placer) Pick(exclude string) (string, [2]string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	type cand struct {
		addr       string
		placements int
	}
	var cands, outCands []cand
	for addr, st := range p.servers {
		if st.dead || addr == exclude {
			continue
		}
		c := cand{addr, st.placements}
		// Servers whose home cluster is in a scheduled outage are a last
		// resort: every write of theirs would start degraded.
		if p.clusterOut(st.cluster) {
			outCands = append(outCands, c)
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		cands = outCands
	}
	if len(cands) == 0 {
		return "", [2]string{}, errors.New("sms: no healthy stream server available")
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].placements != cands[j].placements {
			return cands[i].placements < cands[j].placements
		}
		return cands[i].addr < cands[j].addr
	})
	chosen := cands[0].addr
	st := p.servers[chosen]
	st.placements++
	home := st.cluster
	second := home
	for i, c := range p.clusters {
		if c == home {
			second = p.clusters[(i+1)%len(p.clusters)]
			// Skip partner clusters that are scheduled out: the streamlet
			// starts single-homed rather than failing its first write.
			for j := 2; p.clusterOut(second) && second != home && j <= len(p.clusters); j++ {
				second = p.clusters[(i+j)%len(p.clusters)]
			}
			break
		}
	}
	return chosen, [2]string{home, second}, nil
}
