package meta

import (
	"testing"

	"vortex/internal/truetime"
)

func TestIDDerivation(t *testing.T) {
	s := NewStreamID()
	if s == NewStreamID() {
		t.Fatal("stream ids must be unique")
	}
	sl := StreamletIDFor(s, 2)
	f := FragmentIDFor(sl, 3)
	if string(sl) != string(s)+"/sl-2" {
		t.Fatalf("streamlet id = %s", sl)
	}
	if string(f) != string(sl)+"/f-3" {
		t.Fatalf("fragment id = %s", f)
	}
	if got, ok := StreamletOf(f); !ok || got != sl {
		t.Fatalf("StreamletOf(%s) = %s, %v; want %s", f, got, ok, sl)
	}
	for _, id := range []FragmentID{"ros/d.t/0a1b", "s-1/sl-0/f-", "s-1/sl-0/f-x", "s-1/sl-0/f--1", "f-3"} {
		if got, ok := StreamletOf(id); ok {
			t.Fatalf("StreamletOf(%s) = %s, want none", id, got)
		}
	}
}

func TestVisibilityInterval(t *testing.T) {
	f := &FragmentInfo{CreationTS: 100}
	if f.VisibleAt(99) {
		t.Fatal("visible before creation")
	}
	if !f.VisibleAt(100) || !f.VisibleAt(1<<40) {
		t.Fatal("live fragment must be visible at and after creation")
	}
	if !f.Live() {
		t.Fatal("fragment with no deletion ts must be live")
	}
	f.DeletionTS = 200
	if !f.VisibleAt(199) {
		t.Fatal("visible interval is [creation, deletion)")
	}
	if f.VisibleAt(200) {
		t.Fatal("deletion timestamp is exclusive upper bound")
	}
	if f.Live() {
		t.Fatal("deleted fragment reported live")
	}
}

func TestExactlyOnceHandoffInvariant(t *testing.T) {
	// §6.1: the optimizer atomically sets the old fragment's deletion_ts
	// and the new fragment's creation_ts to the same instant, so every
	// snapshot sees exactly one of them.
	handoff := truetime.Timestamp(500)
	old := &FragmentInfo{CreationTS: 100, DeletionTS: handoff}
	new_ := &FragmentInfo{CreationTS: handoff}
	for _, ts := range []truetime.Timestamp{100, 499, 500, 501, 1 << 50} {
		a, b := old.VisibleAt(ts), new_.VisibleAt(ts)
		if a == b {
			t.Fatalf("at ts=%d both/neither visible (old=%v new=%v)", ts, a, b)
		}
	}
}

func TestMarshalRoundTrips(t *testing.T) {
	s := &StreamInfo{ID: "s-1", Table: "d.t", Type: Buffered, FlushedOffset: 42}
	gotS, err := UnmarshalStream(MarshalStream(s))
	if err != nil || *gotS != *s {
		t.Fatalf("stream round trip: %+v, %v", gotS, err)
	}
	sl := &StreamletInfo{ID: "s-1/sl-0", Stream: "s-1", Seq: 0, Clusters: [2]string{"a", "b"}, RowCount: 7}
	gotSl, err := UnmarshalStreamlet(MarshalStreamlet(sl))
	if err != nil || *gotSl != *sl {
		t.Fatalf("streamlet round trip: %+v, %v", gotSl, err)
	}
	f := &FragmentInfo{ID: "s-1/sl-0/f-0", Format: ROS, RowCount: 10, PartitionSet: []int64{19631}}
	gotF, err := UnmarshalFragment(MarshalFragment(f))
	if err != nil {
		t.Fatal(err)
	}
	if gotF.ID != f.ID || gotF.Format != ROS || len(gotF.PartitionSet) != 1 {
		t.Fatalf("fragment round trip: %+v", gotF)
	}
	if _, err := UnmarshalFragment([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestEnumStrings(t *testing.T) {
	if Unbuffered.String() != "UNBUFFERED" || Buffered.String() != "BUFFERED" || Pending.String() != "PENDING" {
		t.Fatal("stream type names wrong")
	}
	if WOS.String() != "WOS" || ROS.String() != "ROS" {
		t.Fatal("format names wrong")
	}
	if StreamletWritable.String() != "WRITABLE" || StreamletFinalized.String() != "FINALIZED" {
		t.Fatal("state names wrong")
	}
}
