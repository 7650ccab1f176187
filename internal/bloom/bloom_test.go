package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("customer-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.ContainsString(fmt.Sprintf("customer-%d", i)) {
			t.Fatalf("false negative for customer-%d", i)
		}
	}
	if f.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", f.Count())
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	// The invariant partition elimination relies on: a filter may keep a
	// fragment in the scan set unnecessarily, but must never prune one
	// that holds the key (§7.2).
	f := func(keys [][]byte, probe []byte) bool {
		fl := New(len(keys), 0.01)
		added := false
		for _, k := range keys {
			fl.Add(k)
			if bytes.Equal(k, probe) {
				added = true
			}
		}
		fl.Add(probe)
		_ = added
		return fl.Contains(probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	const n = 10000
	f := New(n, 0.01)
	for i := 0; i < n; i++ {
		f.AddString(fmt.Sprintf("present-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.ContainsString(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// Split-block filters trade some FP rate for locality; accept <5%.
	if rate > 0.05 {
		t.Fatalf("false positive rate %.4f too high at target 0.01", rate)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := New(500, 0.01)
	rng := rand.New(rand.NewSource(5))
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = make([]byte, 1+rng.Intn(30))
		rng.Read(keys[i])
		f.Add(keys[i])
	}
	data := f.Marshal()
	g, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() {
		t.Fatalf("count after round trip = %d, want %d", g.Count(), f.Count())
	}
	for _, k := range keys {
		if !g.Contains(k) {
			t.Fatalf("unmarshaled filter lost key %x", k)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 15),
		[]byte("not a bloom filter at all"),
		append(New(10, 0.01).Marshal(), 0xff), // trailing byte
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: Unmarshal accepted invalid input", i)
		}
	}
}

// TestBuilderSizesFromKeys is the property the per-file filters rest on:
// whatever the key count — one key, the 43 of a 512-row clustered file,
// the 306 of a 4 096-row one — the built filter loses no key, is the size
// a filter made for exactly that many distinct keys is, and answers for
// absent keys at a rate near the 1 % it was sized for.
func TestBuilderSizesFromKeys(t *testing.T) {
	for _, n := range []int{1, 43, 306} {
		b := NewBuilder(1 << 16)
		for rep := 0; rep < 3; rep++ { // every key arrives more than once
			for i := 0; i < n; i++ {
				b.AddString(fmt.Sprintf("customer-%05d", i))
			}
		}
		f := b.Build()
		if f.Count() != uint64(n) {
			t.Errorf("%d keys: filter counts %d", n, f.Count())
		}
		if got, want := len(f.Marshal()), len(New(n, fpRate).Marshal()); got != want {
			t.Errorf("%d keys: %d-byte filter, a filter for %d keys is %d", n, got, n, want)
		}
		for i := 0; i < n; i++ {
			if !f.ContainsString(fmt.Sprintf("customer-%05d", i)) {
				t.Fatalf("%d keys: false negative for key %d", n, i)
			}
		}
		// The rate of so small a filter depends on which blocks its few
		// keys fell in; average it over several key sets.
		const sets, probes = 40, 5000
		fp := 0
		for s := 0; s < sets; s++ {
			b := NewBuilder(1 << 16)
			for i := 0; i < n; i++ {
				b.AddString(fmt.Sprintf("set%d-key-%d", s, i))
			}
			f := b.Build()
			for i := 0; i < probes; i++ {
				if f.ContainsString(fmt.Sprintf("absent-%d-%d", s, i)) {
					fp++
				}
			}
		}
		rate := float64(fp) / (sets * probes)
		t.Logf("%d keys: %d bytes, false-positive rate %.4f", n, len(f.Marshal()), rate)
		if rate > 0.03 {
			t.Errorf("%d keys: false-positive rate %.4f, want <= 0.03", n, rate)
		}
	}
}

// TestBuilderBoundedByMaxKeys: past maxKeys distinct keys the builder
// stops collecting and fills a filter of the size made for maxKeys —
// no key is lost and neither the set nor the filter grows further.
func TestBuilderBoundedByMaxKeys(t *testing.T) {
	const maxKeys = 64
	b := NewBuilder(maxKeys)
	for i := 0; i < 10*maxKeys; i++ {
		b.AddString(fmt.Sprintf("k%d", i))
		if len(b.hashes) > maxKeys+1 {
			t.Fatalf("after %d keys the builder holds %d hashes", i+1, len(b.hashes))
		}
	}
	f := b.Build()
	if got, want := len(f.Marshal()), len(New(maxKeys, fpRate).Marshal()); got != want {
		t.Fatalf("filter is %d bytes, the cap is %d", got, want)
	}
	for i := 0; i < 10*maxKeys; i++ {
		if !f.ContainsString(fmt.Sprintf("k%d", i)) {
			t.Fatalf("false negative for k%d", i)
		}
	}
}

func TestEmptyFilterContainsNothingMuch(t *testing.T) {
	f := New(100, 0.01)
	hits := 0
	for i := 0; i < 1000; i++ {
		if f.ContainsString(fmt.Sprintf("k%d", i)) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("empty filter reported %d hits", hits)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1<<20, 0.01)
	key := []byte("customerKey-ACME-ENTERPRISES")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Add(key)
	}
}

func BenchmarkContains(b *testing.B) {
	f := New(1<<20, 0.01)
	for i := 0; i < 100000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	key := []byte("key-55555")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Contains(key)
	}
}
