package slicer

import (
	"errors"
	"sync"
	"testing"
)

func TestLookupAssignsAndSticks(t *testing.T) {
	s := New(nil)
	if _, err := s.Lookup("table-1"); !errors.Is(err, ErrNoTasks) {
		t.Fatalf("lookup with no tasks: %v", err)
	}
	s.AddTask("sms-0")
	s.AddTask("sms-1")
	owner, err := s.Lookup("table-1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _ := s.Lookup("table-1")
		if again != owner {
			t.Fatalf("assignment flapped: %s then %s", owner, again)
		}
	}
	if !s.Owns(owner, "table-1") {
		t.Fatal("owner does not believe it owns the key")
	}
}

func TestNotifyOnAssignment(t *testing.T) {
	var mu sync.Mutex
	notified := map[string]string{}
	s := New(func(key, task string) {
		mu.Lock()
		notified[key] = task
		mu.Unlock()
	})
	s.AddTask("sms-0")
	owner, _ := s.Lookup("t")
	mu.Lock()
	defer mu.Unlock()
	if notified["t"] != owner {
		t.Fatalf("notify got %q, want %q", notified["t"], owner)
	}
}

func TestDoubleOwnershipWindow(t *testing.T) {
	s := New(nil)
	s.AddTask("sms-0")
	s.AddTask("sms-1")
	old, _ := s.Lookup("t")
	next := "sms-0"
	if old == "sms-0" {
		next = "sms-1"
	}
	if err := s.Reassign("t", next); err != nil {
		t.Fatal(err)
	}
	// The paper's documented inconsistency: both tasks think they own it.
	if !s.Owns(next, "t") {
		t.Fatal("new owner must own the key")
	}
	if !s.Owns(old, "t") {
		t.Fatal("stale owner must still believe it owns the key during the window")
	}
	s.Settle("t")
	if s.Owns(old, "t") {
		t.Fatal("stale ownership survived Settle")
	}
	if !s.Owns(next, "t") {
		t.Fatal("settling removed the real owner")
	}
}

func TestReassignToUnknownTaskFails(t *testing.T) {
	s := New(nil)
	s.AddTask("sms-0")
	s.Lookup("t")
	if err := s.Reassign("t", "ghost"); err == nil {
		t.Fatal("reassigned to unregistered task")
	}
}

func TestRemoveTaskReassignsKeys(t *testing.T) {
	s := New(nil)
	s.AddTask("sms-0")
	s.AddTask("sms-1")
	// Pin keys to specific owners.
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		s.Lookup(k)
	}
	var victim string
	for _, task := range s.Tasks() {
		for _, k := range keys {
			if s.Owns(task, k) {
				victim = task
			}
		}
	}
	s.RemoveTask(victim)
	for _, k := range keys {
		owner, err := s.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if owner == victim {
			t.Fatalf("key %q still assigned to removed task", k)
		}
	}
	if got := s.Tasks(); len(got) != 1 {
		t.Fatalf("tasks = %v", got)
	}
}

func TestRemoveLastTaskDropsAssignments(t *testing.T) {
	s := New(nil)
	s.AddTask("only")
	s.Lookup("k")
	s.RemoveTask("only")
	if _, err := s.Lookup("k"); !errors.Is(err, ErrNoTasks) {
		t.Fatalf("err = %v, want ErrNoTasks", err)
	}
}

func TestConcurrentLookupsStable(t *testing.T) {
	s := New(nil)
	s.AddTask("sms-0")
	s.AddTask("sms-1")
	s.AddTask("sms-2")
	var wg sync.WaitGroup
	owners := make([]string, 16)
	for g := range owners {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o, err := s.Lookup("hot-table")
			if err != nil {
				t.Error(err)
				return
			}
			owners[g] = o
		}(g)
	}
	wg.Wait()
	for _, o := range owners[1:] {
		if o != owners[0] {
			t.Fatalf("concurrent lookups disagreed: %v", owners)
		}
	}
}
