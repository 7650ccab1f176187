package spanner

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vortex/internal/truetime"
)

func newDB() *DB { return NewDB(truetime.Default()) }

func TestBasicPutGet(t *testing.T) {
	db := newDB()
	_, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("streams/s1", []byte("meta"))
		// Read-your-writes inside the transaction.
		v, ok := tx.Get("streams/s1")
		if !ok || string(v) != "meta" {
			return fmt.Errorf("read-your-writes failed: %q %v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.ReadTxn(func(tx *Txn) error {
		v, ok := tx.Get("streams/s1")
		if !ok || string(v) != "meta" {
			return fmt.Errorf("committed value not visible: %q %v", v, ok)
		}
		if _, ok := tx.Get("missing"); ok {
			return errors.New("missing key reported present")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	db := newDB()
	boom := errors.New("boom")
	_, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("k", []byte("v"))
		return boom
	})
	if !errors.Is(err, ErrAborted) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrAborted wrapping boom", err)
	}
	db.ReadTxn(func(tx *Txn) error {
		if _, ok := tx.Get("k"); ok {
			t.Error("aborted write became visible")
		}
		return nil
	})
}

func TestDeleteAndTombstoneVisibility(t *testing.T) {
	db := newDB()
	var createdAt truetime.Timestamp
	createdAt, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("k", []byte("v1"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Delete("k")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Current snapshot: gone.
	db.ReadTxn(func(tx *Txn) error {
		if _, ok := tx.Get("k"); ok {
			t.Error("deleted key still visible")
		}
		return nil
	})
	// Historical snapshot at creation time: still there (time travel).
	db.SnapshotRead(createdAt, func(tx *Txn) error {
		if v, ok := tx.Get("k"); !ok || string(v) != "v1" {
			t.Errorf("historical read = %q %v", v, ok)
		}
		return nil
	})
}

func TestScanOrderedWithBufferedWrites(t *testing.T) {
	db := newDB()
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("t/b", []byte("2"))
		tx.Put("t/a", []byte("1"))
		tx.Put("u/x", []byte("9"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("t/c", []byte("3"))
		tx.Delete("t/a")
		kvs := tx.Scan("t/")
		if len(kvs) != 2 || kvs[0].Key != "t/b" || kvs[1].Key != "t/c" {
			return fmt.Errorf("scan = %v", kvs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteWriteConflictRetries(t *testing.T) {
	db := newDB()
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("counter", []byte("0"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Concurrent increments must all be applied exactly once: the
	// lost-update anomaly is what optimistic validation prevents.
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_, err := db.ReadWriteTxn(func(tx *Txn) error {
					v, _ := tx.Get("counter")
					n, _ := strconv.Atoi(string(v))
					tx.Put("counter", []byte(strconv.Itoa(n+1)))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	db.ReadTxn(func(tx *Txn) error {
		v, _ := tx.Get("counter")
		if string(v) != strconv.Itoa(workers*per) {
			t.Errorf("counter = %s, want %d (lost updates)", v, workers*per)
		}
		return nil
	})
	if db.ConflictCount() == 0 {
		t.Log("note: no conflicts observed; contention too low to exercise validation")
	}
}

func TestPredicateReadConflict(t *testing.T) {
	db := newDB()
	// Transaction A scans a prefix and decides based on emptiness;
	// transaction B inserts a matching key concurrently. A's commit must
	// not be allowed to proceed on the stale premise.
	started := make(chan struct{})
	proceed := make(chan struct{})
	var aErr error
	var wg sync.WaitGroup
	wg.Add(1)
	attempt := 0
	go func() {
		defer wg.Done()
		_, aErr = db.ReadWriteTxn(func(tx *Txn) error {
			attempt++
			kvs := tx.Scan("streamlets/")
			if attempt == 1 {
				close(started)
				<-proceed
			}
			// Writable-streamlet invariant: only create if none exists.
			if len(kvs) == 0 {
				tx.Put("streamlets/new", []byte("created"))
			}
			return nil
		})
	}()
	<-started
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("streamlets/competitor", []byte("created"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(proceed)
	wg.Wait()
	if aErr != nil {
		t.Fatal(aErr)
	}
	// After retry, A saw the competitor and did not create a duplicate.
	db.ReadTxn(func(tx *Txn) error {
		kvs := tx.Scan("streamlets/")
		if len(kvs) != 1 || kvs[0].Key != "streamlets/competitor" {
			t.Errorf("scan = %v; predicate validation failed", kvs)
		}
		return nil
	})
}

func TestSnapshotReadsAreStable(t *testing.T) {
	db := newDB()
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("k", []byte("v1"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	snapTS := db.Clock().Commit()
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("k", []byte("v2"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.SnapshotRead(snapTS, func(tx *Txn) error {
		if v, _ := tx.Get("k"); string(v) != "v1" {
			t.Errorf("snapshot read = %q, want v1", v)
		}
		return nil
	})
}

func TestGetCopiesValue(t *testing.T) {
	db := newDB()
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Put("k", []byte("abc"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.ReadTxn(func(tx *Txn) error {
		v, _ := tx.Get("k")
		v[0] = 'X'
		return nil
	})
	db.ReadTxn(func(tx *Txn) error {
		if v, _ := tx.Get("k"); string(v) != "abc" {
			t.Errorf("stored value mutated through Get: %q", v)
		}
		return nil
	})
}

func TestPutPanicsInReadOnly(t *testing.T) {
	db := newDB()
	defer func() {
		if recover() == nil {
			t.Fatal("Put in read-only txn did not panic")
		}
	}()
	db.ReadTxn(func(tx *Txn) error {
		tx.Put("k", nil)
		return nil
	})
}

func TestCompactBefore(t *testing.T) {
	clock := truetime.NewManual(time.Now(), time.Millisecond)
	db := NewDB(clock)
	for i := 0; i < 5; i++ {
		if _, err := db.ReadWriteTxn(func(tx *Txn) error {
			tx.Put("k", []byte(strconv.Itoa(i)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	if _, err := db.ReadWriteTxn(func(tx *Txn) error {
		tx.Delete("dead")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.CompactBefore(clock.Commit())
	db.ReadTxn(func(tx *Txn) error {
		if v, _ := tx.Get("k"); string(v) != "4" {
			t.Errorf("latest value lost in compaction: %q", v)
		}
		if _, ok := tx.Get("dead"); ok {
			t.Error("tombstoned key resurrected")
		}
		return nil
	})
}

func TestCommitTimestampsMonotonic(t *testing.T) {
	db := newDB()
	var last truetime.Timestamp
	for i := 0; i < 100; i++ {
		ts, err := db.ReadWriteTxn(func(tx *Txn) error {
			tx.Put("k", []byte{byte(i)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("commit ts %d not after %d", ts, last)
		}
		last = ts
	}
}

// TestKeyIndexTracksData: through random puts, deletes and compactions,
// the ordered key index holds exactly the database's keys in order, and
// a prefix scan returns what filtering every key by the prefix returns.
func TestKeyIndexTracksData(t *testing.T) {
	clock := truetime.NewManual(time.Now(), time.Millisecond)
	db := NewDB(clock)
	rng := rand.New(rand.NewPCG(1, 2))
	want := map[string]string{} // the live pairs
	key := func() string { return fmt.Sprintf("t%d/k%02d", rng.IntN(3), rng.IntN(40)) }
	for round := 0; round < 200; round++ {
		if _, err := db.ReadWriteTxn(func(tx *Txn) error {
			for n := rng.IntN(4); n >= 0; n-- {
				k := key()
				if rng.IntN(3) == 0 {
					tx.Delete(k)
					delete(want, k)
				} else {
					tx.Put(k, []byte(strconv.Itoa(round)))
					want[k] = strconv.Itoa(round)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
		if round%25 == 0 {
			db.CompactBefore(clock.Commit())
		}
		db.mu.Lock()
		keys := sortedKeys(db.data)
		if !slices.Equal(db.keys, keys) {
			t.Fatalf("round %d: index %v, data %v", round, db.keys, keys)
		}
		db.mu.Unlock()
		prefix := fmt.Sprintf("t%d/k%d", rng.IntN(3), rng.IntN(4))
		var wantKVs []string
		for _, k := range sortedKeys(want) {
			if strings.HasPrefix(k, prefix) {
				wantKVs = append(wantKVs, k+"="+want[k])
			}
		}
		var got []string
		db.ReadTxn(func(tx *Txn) error {
			for _, kv := range tx.Scan(prefix) {
				got = append(got, kv.Key+"="+string(kv.Value))
			}
			return nil
		})
		if !slices.Equal(got, wantKVs) {
			t.Fatalf("round %d: Scan(%q) = %v, want %v", round, prefix, got, wantKVs)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
