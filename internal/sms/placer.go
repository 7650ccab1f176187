package sms

import (
	"errors"
	"sort"
	"sync"
)

// Placer chooses a Stream Server for a new streamlet "based on load and
// health characteristics" (§5.2) and receives the load reports carried
// by heartbeats (§5.5): the least-loaded live server wins, and the
// replica pair is the server's home cluster plus the next cluster in
// the region (§5.6). One implementation serves the in-process region
// and the multi-process coordinator alike.
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
	load       float64
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
		addr string
		cost float64
	}
	var cands, outCands []cand
	for addr, st := range p.servers {
		if st.dead || addr == exclude {
			continue
		}
		// Load plus a placement-count term keeps assignment spread even
		// before the first heartbeats arrive.
		c := cand{addr, st.load + float64(st.placements)*0.01}
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
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
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

// ReportLoad records one heartbeat's load information.
func (p *Placer) ReportLoad(addr string, cpu, mem float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.servers[addr]; ok {
		st.load = cpu + mem
	}
}
