// Package spanner simulates the slice of Google Spanner that Vortex's
// control plane depends on (§5.1, §5.2): a strongly consistent key-value
// database with ACID read-write transactions, snapshot reads at a
// TrueTime timestamp, and ordered range scans.
//
// The paper leans on Spanner's transaction semantics for correctness in
// exactly one hard case: Slicer's eventually consistent sharding can
// briefly give two SMS tasks ownership of the same table, and "Vortex is
// resilient to such inconsistency ... achieved by the ACID semantics
// offered by the Spanner transactions" (§5.2.1). This simulation
// therefore implements real snapshot-isolated optimistic transactions —
// concurrent conflicting commits abort and retry — rather than a mutex
// around a map.
package spanner

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"vortex/internal/truetime"
)

// ErrConflict is returned when a read-write transaction loses an
// optimistic-concurrency race and has exhausted its retries.
var ErrConflict = errors.New("spanner: transaction conflict")

// ErrAborted is returned (wrapped) when the user function asks to abort.
var ErrAborted = errors.New("spanner: transaction aborted")

// maxRetries bounds automatic retry of conflicting transactions, matching
// the behaviour of the real Spanner client library.
const maxRetries = 64

type version struct {
	ts      truetime.Timestamp
	value   []byte
	deleted bool
}

type entry struct {
	versions []version // ascending by ts
}

func (e *entry) read(at truetime.Timestamp) ([]byte, bool) {
	for i := len(e.versions) - 1; i >= 0; i-- {
		if e.versions[i].ts <= at {
			if e.versions[i].deleted {
				return nil, false
			}
			return e.versions[i].value, true
		}
	}
	return nil, false
}

func (e *entry) latestTS() truetime.Timestamp {
	if len(e.versions) == 0 {
		return 0
	}
	return e.versions[len(e.versions)-1].ts
}

// DB is a single-region Spanner database.
type DB struct {
	clock truetime.Clock

	mu   sync.Mutex
	data map[string]*entry
	// keys holds data's keys in order, so a prefix scan and a predicate
	// read's check cost the prefix's range, not the database.
	keys []string

	conflicts int64
}

// prefixRange returns the keys that start with prefix, in order. The
// caller holds db.mu and must not keep the slice past it.
func (db *DB) prefixRange(prefix string) []string {
	lo := sort.SearchStrings(db.keys, prefix)
	hi := lo + sort.Search(len(db.keys)-lo, func(i int) bool { return !strings.HasPrefix(db.keys[lo+i], prefix) })
	return db.keys[lo:hi]
}

// NewDB returns an empty database using clock for commit timestamps.
func NewDB(clock truetime.Clock) *DB {
	return &DB{clock: clock, data: make(map[string]*entry)}
}

// Clock returns the database's TrueTime clock.
func (db *DB) Clock() truetime.Clock { return db.clock }

// ConflictCount returns the number of optimistic-concurrency aborts
// (including those that later succeeded on retry).
func (db *DB) ConflictCount() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.conflicts
}

// Txn is a transaction handle passed to user functions. Reads observe a
// consistent snapshot taken at the transaction's start plus the
// transaction's own writes; writes are buffered until commit.
type Txn struct {
	db       *DB
	readTS   truetime.Timestamp
	writes   map[string]write
	reads    map[string]bool
	scanned  []string // scanned prefixes, validated as predicate reads
	readOnly bool
}

type write struct {
	value   []byte
	deleted bool
}

// Get returns the value for key, or ok=false if absent.
func (tx *Txn) Get(key string) (value []byte, ok bool) {
	if w, hit := tx.writes[key]; hit {
		if w.deleted {
			return nil, false
		}
		return append([]byte(nil), w.value...), true
	}
	if !tx.readOnly {
		tx.reads[key] = true
	}
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	e, exists := tx.db.data[key]
	if !exists {
		return nil, false
	}
	v, ok := e.read(tx.readTS)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// KV is one key-value pair returned by Scan.
type KV struct {
	Key   string
	Value []byte
}

// Scan returns all live pairs whose key starts with prefix, in key order.
// In a read-write transaction the prefix is tracked as a predicate read:
// any commit that adds or removes a matching key conflicts.
func (tx *Txn) Scan(prefix string) []KV {
	if !tx.readOnly {
		tx.scanned = append(tx.scanned, prefix)
	}
	merged := make(map[string][]byte)
	tx.db.mu.Lock()
	for _, k := range tx.db.prefixRange(prefix) {
		if v, ok := tx.db.data[k].read(tx.readTS); ok {
			merged[k] = append([]byte(nil), v...)
		}
	}
	tx.db.mu.Unlock()
	for k, w := range tx.writes {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if w.deleted {
			delete(merged, k)
		} else {
			merged[k] = append([]byte(nil), w.value...)
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: k, Value: merged[k]}
	}
	return out
}

// Put buffers a write of key=value.
func (tx *Txn) Put(key string, value []byte) {
	if tx.readOnly {
		panic("spanner: Put inside a read-only transaction")
	}
	tx.writes[key] = write{value: append([]byte(nil), value...)}
}

// Delete buffers a deletion of key.
func (tx *Txn) Delete(key string) {
	if tx.readOnly {
		panic("spanner: Delete inside a read-only transaction")
	}
	tx.writes[key] = write{deleted: true}
}

// ReadWriteTxn runs fn inside a snapshot-isolated optimistic transaction,
// retrying automatically on conflict. If fn returns an error the
// transaction is rolled back and the error returned (wrapped ErrAborted).
// On success it returns the commit timestamp.
func (db *DB) ReadWriteTxn(fn func(tx *Txn) error) (truetime.Timestamp, error) {
	for attempt := 0; attempt < maxRetries; attempt++ {
		tx := &Txn{
			db:     db,
			readTS: db.clock.Commit(),
			writes: make(map[string]write),
			reads:  make(map[string]bool),
		}
		if err := fn(tx); err != nil {
			return 0, fmt.Errorf("%w: %w", ErrAborted, err)
		}
		ts, ok := db.tryCommit(tx)
		if ok {
			return ts, nil
		}
	}
	return 0, ErrConflict
}

// tryCommit validates the transaction's read and scan sets against
// intervening commits and, if clean, applies its writes atomically at a
// fresh commit timestamp.
func (db *DB) tryCommit(tx *Txn) (truetime.Timestamp, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	// Validate point reads: no committed version newer than our snapshot.
	for key := range tx.reads {
		if e, ok := db.data[key]; ok && e.latestTS() > tx.readTS {
			db.conflicts++
			return 0, false
		}
	}
	// Validate writes (write-write conflicts).
	for key := range tx.writes {
		if e, ok := db.data[key]; ok && e.latestTS() > tx.readTS {
			db.conflicts++
			return 0, false
		}
	}
	// Validate predicate reads: any key matching a scanned prefix that
	// changed after our snapshot conflicts.
	for _, prefix := range tx.scanned {
		for _, k := range db.prefixRange(prefix) {
			if db.data[k].latestTS() > tx.readTS {
				db.conflicts++
				return 0, false
			}
		}
	}
	ts := db.clock.Commit()
	var added []string
	for key, w := range tx.writes {
		e, ok := db.data[key]
		if !ok {
			e = &entry{}
			db.data[key] = e
			added = append(added, key)
		}
		e.versions = append(e.versions, version{ts: ts, value: w.value, deleted: w.deleted})
	}
	db.index(added)
	return ts, true
}

// index merges keys new to the database into db.keys, from the back,
// so only the keys past the first new one move.
func (db *DB) index(added []string) {
	slices.Sort(added)
	n := len(db.keys)
	db.keys = slices.Grow(db.keys, len(added))[:n+len(added)]
	i, j := n-1, len(added)-1
	for w := len(db.keys) - 1; j >= 0; w-- {
		if i >= 0 && db.keys[i] > added[j] {
			db.keys[w] = db.keys[i]
			i--
		} else {
			db.keys[w] = added[j]
			j--
		}
	}
}

// ReadTxn runs fn against a consistent snapshot taken now.
func (db *DB) ReadTxn(fn func(tx *Txn) error) error {
	return db.SnapshotRead(db.clock.Commit(), fn)
}

// SnapshotRead runs fn against the snapshot at ts. Vortex serves table
// reads "as of a specific snapshot read time" (§7).
func (db *DB) SnapshotRead(ts truetime.Timestamp, fn func(tx *Txn) error) error {
	tx := &Txn{db: db, readTS: ts, readOnly: true}
	return fn(tx)
}

// CompactBefore drops versions that are no longer visible to any snapshot
// at or after ts, keeping at most the latest visible version per key.
// This models Spanner's version GC; Vortex's groomer calls it.
func (db *DB) CompactBefore(ts truetime.Timestamp) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for k, e := range db.data {
		// Find the last version with ts' <= ts: it is the visible base.
		base := -1
		for i, v := range e.versions {
			if v.ts <= ts {
				base = i
			} else {
				break
			}
		}
		if base <= 0 {
			continue
		}
		kept := e.versions[base:]
		if len(kept) == 1 && kept[0].deleted {
			delete(db.data, k)
			continue
		}
		e.versions = append([]version(nil), kept...)
	}
	if len(db.keys) != len(db.data) {
		db.keys = slices.DeleteFunc(db.keys, func(k string) bool { return db.data[k] == nil })
	}
}
