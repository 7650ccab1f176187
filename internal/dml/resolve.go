package dml

import (
	"sort"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// Change is one row as the `_CHANGE_TYPE` replay sees it: when it was
// stored, what it does, and which primary key it does it to. Keyed is
// false when the key is NULL or missing.
type Change struct {
	Seq   int64
	Type  schema.ChangeType
	Key   string
	Keyed bool
}

// ChangeOf renders a stamped row of a primary-keyed table for Replay.
func ChangeOf(s *schema.Schema, seq int64, row schema.Row) Change {
	pk, err := s.PrimaryKeyOf(row)
	return Change{Seq: seq, Type: row.Change, Key: pk, Keyed: err == nil}
}

// Replay applies `_CHANGE_TYPE` semantics (§4.2.6) to the changes in
// storage-sequence order (ties in slice order) and reports, per input
// position, which rows do not survive:
//
//   - INSERT appends the row (primary keys are unenforced for inserts);
//   - UPSERT replaces every earlier row with the same primary key, or
//     inserts when none exists;
//   - DELETE removes every earlier row with the same primary key.
//
// When dropTombstones is false (compaction of a *subset* of the table's
// fragments), surviving UPSERT/DELETE rows keep their change types so a
// later merge against older fragments still replaces/deletes; a final
// read (or a merge covering every fragment) passes dropTombstones=true.
func Replay(changes []Change, dropTombstones bool) (dead []bool) {
	order := make([]int, len(changes))
	for i := range order {
		order[i] = i
	}
	// ResolveChanges hands its rows over already in sequence order; only
	// a caller that concatenates fragments (the query engine) pays to sort.
	bySeq := func(i, j int) bool { return changes[order[i]].Seq < changes[order[j]].Seq }
	if !sort.SliceIsSorted(order, bySeq) {
		sort.SliceStable(order, bySeq)
	}
	// prior tracks every surviving row (including kept tombstones) per
	// primary key; a later UPSERT/DELETE subsumes all of them.
	prior := make(map[string][]int, len(changes))
	dead = make([]bool, len(changes))
	for _, i := range order {
		c := changes[i]
		if !c.Keyed {
			// Rows with NULL/missing keys cannot participate in keyed
			// replacement. INSERT/UPSERT rows are treated as plain
			// inserts, but a DELETE without a resolvable key can delete
			// nothing — surfacing it as a live row would hand consumers
			// a phantom (and a retraction-driven consumer a tombstone
			// with no key context to retract by). It is dropped on a
			// final read and kept (still a tombstone, still keyless) on
			// subset compactions, where a later full merge drops it.
			if c.Type == schema.ChangeDelete && dropTombstones {
				dead[i] = true
			}
			continue
		}
		switch c.Type {
		case schema.ChangeInsert:
			prior[c.Key] = append(prior[c.Key], i)
		case schema.ChangeUpsert, schema.ChangeDelete:
			for _, j := range prior[c.Key] {
				dead[j] = true
			}
			prior[c.Key] = prior[c.Key][:0]
			if c.Type == schema.ChangeUpsert {
				prior[c.Key] = append(prior[c.Key], i)
			} else if dropTombstones {
				dead[i] = true
			} else {
				prior[c.Key] = append(prior[c.Key], i) // kept tombstone, subsumable
			}
		}
	}
	return dead
}

// ResolveChanges returns the rows that survive Replay, in
// storage-sequence order. Tables without a primary key are returned
// unchanged (order aside).
func ResolveChanges(s *schema.Schema, rows []rowenc.Stamped, dropTombstones bool) []rowenc.Stamped {
	out := append([]rowenc.Stamped(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if len(s.PrimaryKey) == 0 {
		return out
	}
	changes := make([]Change, len(out))
	for i, r := range out {
		changes[i] = ChangeOf(s, r.Seq, r.Row)
	}
	dead := Replay(changes, dropTombstones)
	result := out[:0]
	for i := range out {
		if !dead[i] {
			result = append(result, out[i])
		}
	}
	return result
}
