// Package slicer simulates Slicer, Google's auto-sharding service, as
// the Vortex control plane uses it (§5.2.1): it assigns keys (tables) to
// tasks (SMS instances), redistributes assignments when tasks fail or
// keys run hot, and — crucially — is only *eventually* consistent:
// "there can be rare times when two SMS tasks think that they both
// manage the table's metadata". The simulation exposes that window
// explicitly so tests can drive the double-ownership race the paper says
// Spanner transactions make safe.
package slicer

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// ErrNoTasks is returned by Lookup when no tasks are registered.
var ErrNoTasks = errors.New("slicer: no tasks registered")

// Slicer assigns string keys to named tasks.
type Slicer struct {
	mu sync.Mutex
	// tasks is the set of registered task names.
	tasks map[string]bool
	// assign maps key -> current owner task.
	assign map[string]string
	// stale maps key -> previous owner that has not yet observed the
	// reassignment (the eventual-consistency window).
	stale map[string]string
	// keyLoad accumulates observed per-key load (e.g. routing lookups or
	// bytes), the signal load-driven rebalancing moves keys by.
	keyLoad map[string]float64
	// notify receives assignment changes: (key, newOwner).
	notify func(key, task string)
}

// New returns an empty Slicer. notify, if non-nil, is invoked (without
// the lock held) whenever a key is assigned to a task — Slicer
// "redistributes the load by assigning the table to a new SMS task and
// notifying it".
func New(notify func(key, task string)) *Slicer {
	return &Slicer{
		tasks:   make(map[string]bool),
		assign:  make(map[string]string),
		stale:   make(map[string]string),
		keyLoad: make(map[string]float64),
		notify:  notify,
	}
}

// AddTask registers a task.
func (s *Slicer) AddTask(task string) {
	s.mu.Lock()
	s.tasks[task] = true
	s.mu.Unlock()
}

// RemoveTask deregisters a task (e.g. it crashed or was drained) and
// reassigns every key it owned. The removed task is recorded as the
// stale owner of those keys until the window is settled.
func (s *Slicer) RemoveTask(task string) {
	s.mu.Lock()
	delete(s.tasks, task)
	var moved []struct{ key, owner string }
	for key, owner := range s.assign {
		if owner != task {
			continue
		}
		next, err := s.pickLocked(key)
		if err != nil {
			delete(s.assign, key)
			continue
		}
		s.assign[key] = next
		s.stale[key] = task
		moved = append(moved, struct{ key, owner string }{key, next})
	}
	notify := s.notify
	s.mu.Unlock()
	if notify != nil {
		for _, m := range moved {
			notify(m.key, m.owner)
		}
	}
}

// Tasks returns the registered task names, sorted.
func (s *Slicer) Tasks() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasksLocked()
}

func (s *Slicer) tasksLocked() []string {
	out := make([]string, 0, len(s.tasks))
	for t := range s.tasks {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// pickLocked chooses a task for a key that has none: a stable hash of
// the key over the sorted task names, so first assignment is
// deterministic and spreads keys evenly. Load plays no part here — it
// moves keys afterwards, through RecordKeyLoad and RebalanceByLoad.
func (s *Slicer) pickLocked(key string) (string, error) {
	if len(s.tasks) == 0 {
		return "", ErrNoTasks
	}
	names := s.tasksLocked()
	h := fnv.New32a()
	h.Write([]byte(key))
	return names[h.Sum32()%uint32(len(names))], nil
}

// Lookup returns the task currently assigned to key, assigning one if
// needed. Clients (and the SMS frontends) use this to route requests.
func (s *Slicer) Lookup(key string) (string, error) {
	s.mu.Lock()
	if owner, ok := s.assign[key]; ok {
		s.mu.Unlock()
		return owner, nil
	}
	owner, err := s.pickLocked(key)
	if err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.assign[key] = owner
	notify := s.notify
	s.mu.Unlock()
	if notify != nil {
		notify(key, owner)
	}
	return owner, nil
}

// Owns reports whether task believes it owns key. During a reassignment
// window BOTH the new and the stale owner return true — this is the
// documented Slicer inconsistency Vortex must tolerate (§5.2.1).
func (s *Slicer) Owns(task, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.assign[key] == task {
		return true
	}
	return s.stale[key] == task
}

// Reassign moves key to a specific task (used by load rebalancing and by
// tests), leaving the previous owner in the stale window.
func (s *Slicer) Reassign(key, task string) error {
	s.mu.Lock()
	if !s.tasks[task] {
		s.mu.Unlock()
		return fmt.Errorf("slicer: unknown task %q", task)
	}
	prev, had := s.assign[key]
	s.assign[key] = task
	if had && prev != task {
		s.stale[key] = prev
	}
	notify := s.notify
	s.mu.Unlock()
	if notify != nil {
		notify(key, task)
	}
	return nil
}

// Settle closes the eventual-consistency window for key: the stale owner
// stops believing it owns the key.
func (s *Slicer) Settle(key string) {
	s.mu.Lock()
	delete(s.stale, key)
	s.mu.Unlock()
}

// SettleAll closes every open reassignment window.
func (s *Slicer) SettleAll() {
	s.mu.Lock()
	s.stale = make(map[string]string)
	s.mu.Unlock()
}

// RecordKeyLoad accumulates observed load against a key. Routing layers
// call it on every lookup (weight 1) or with a byte count; the
// accumulated distribution drives RebalanceByLoad.
func (s *Slicer) RecordKeyLoad(key string, weight float64) {
	if weight <= 0 {
		return
	}
	s.mu.Lock()
	s.keyLoad[key] += weight
	s.mu.Unlock()
}

// KeyLoads returns a snapshot of the accumulated per-key load.
func (s *Slicer) KeyLoads() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.keyLoad))
	for k, v := range s.keyLoad {
		out[k] = v
	}
	return out
}

// StaleOwners returns the keys whose reassignment window is still open,
// mapped to the previous owner that may still believe it owns them.
func (s *Slicer) StaleOwners() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.stale))
	for k, v := range s.stale {
		out[k] = v
	}
	return out
}

// RebalanceByLoad redistributes keys using the accumulated per-key load
// rather than key counts: under zipf-skewed popularity a task owning
// one hot key can be busier than a task owning fifty cold ones. "Load
// balancing of metadata operations across SMS tasks is achieved by
// reporting load information to Slicer" (§5.2.1). It greedily moves the hottest keys
// off the most loaded task onto the least loaded while the imbalance
// exceeds 10%, at most maxMoves keys, leaving each moved key's previous
// owner in the deliberate double-assignment window (§5.2.1) until
// Settle. The load ledger is halved afterwards so the signal decays and
// rebalancing tracks shifting skew instead of all history. Returns the
// keys moved.
func (s *Slicer) RebalanceByLoad(maxMoves int) []string {
	s.mu.Lock()
	if len(s.tasks) < 2 {
		s.mu.Unlock()
		return nil
	}
	// Per-task load = sum of its keys' observed loads.
	taskLoad := make(map[string]float64, len(s.tasks))
	owned := make(map[string][]string)
	for t := range s.tasks {
		taskLoad[t] = 0
	}
	for key, t := range s.assign {
		if !s.tasks[t] {
			continue
		}
		owned[t] = append(owned[t], key)
		taskLoad[t] += s.keyLoad[key]
	}
	var movedKeys []string
	var moved []struct{ key, owner string }
	for len(movedKeys) < maxMoves {
		var maxT, minT string
		for t := range s.tasks {
			if maxT == "" || taskLoad[t] > taskLoad[maxT] || (taskLoad[t] == taskLoad[maxT] && t < maxT) {
				maxT = t
			}
			if minT == "" || taskLoad[t] < taskLoad[minT] || (taskLoad[t] == taskLoad[minT] && t < minT) {
				minT = t
			}
		}
		if maxT == minT || taskLoad[maxT]-taskLoad[minT] <= 0.1*taskLoad[maxT] {
			break
		}
		// Hottest key of the hottest task that actually improves the
		// imbalance: moving more than half the gap would overshoot and
		// oscillate. Deterministic order: load desc, then key asc.
		keys := owned[maxT]
		sort.Slice(keys, func(i, j int) bool {
			li, lj := s.keyLoad[keys[i]], s.keyLoad[keys[j]]
			if li != lj {
				return li > lj
			}
			return keys[i] < keys[j]
		})
		gap := taskLoad[maxT] - taskLoad[minT]
		picked := -1
		for i, k := range keys {
			if l := s.keyLoad[k]; l > 0 && l <= gap/2 {
				picked = i
				break
			}
		}
		if picked < 0 {
			break
		}
		key := keys[picked]
		owned[maxT] = append(keys[:picked], keys[picked+1:]...)
		owned[minT] = append(owned[minT], key)
		taskLoad[maxT] -= s.keyLoad[key]
		taskLoad[minT] += s.keyLoad[key]
		s.stale[key] = maxT
		s.assign[key] = minT
		movedKeys = append(movedKeys, key)
		moved = append(moved, struct{ key, owner string }{key, minT})
	}
	for k := range s.keyLoad {
		s.keyLoad[k] /= 2
	}
	notify := s.notify
	s.mu.Unlock()
	if notify != nil {
		for _, m := range moved {
			notify(m.key, m.owner)
		}
	}
	return movedKeys
}
