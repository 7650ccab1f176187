package query_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"vortex/internal/query"
)

// The golden file pins the result of every SELECT that qenv.mustQuery
// runs. The digests of the statements that predate the single batch
// pipeline were recorded while the engine still had a row-at-a-time
// twin and mustQuery asserted the two agreed, so they are the row
// path's answers; a later -update-golden run must leave those lines
// unchanged (review the diff).
const goldenPath = "testdata/select.golden"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from the results this run produces")

var golden = struct{ want, got map[string]string }{map[string]string{}, map[string]string{}}

func TestMain(m *testing.M) {
	flag.Parse()
	if data, err := os.ReadFile(goldenPath); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if digest, key, ok := strings.Cut(line, " "); ok {
				golden.want[key] = digest
			}
		}
	}
	code := m.Run()
	if *updateGolden && code == 0 {
		keys := make([]string, 0, len(golden.got))
		for k := range golden.got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", golden.got[k], k)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// resultDigest fingerprints a result's column names and rows in order.
func resultDigest(res *query.Result) string {
	h := sha256.New()
	fmt.Fprintln(h, res.Columns)
	for _, row := range res.Rows() {
		fmt.Fprintln(h, row)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// checkGolden compares res against the digest recorded for this
// statement: keyed by test name, whitespace-normalized SQL and, when a
// test repeats a statement, its occurrence.
func (e *qenv) checkGolden(t testing.TB, sqlText string, res *query.Result) {
	t.Helper()
	stmt := strings.Join(strings.Fields(sqlText), " ")
	if e.seen == nil {
		e.seen = map[string]int{}
	}
	e.seen[stmt]++
	key := fmt.Sprintf("%s #%d %s", t.Name(), e.seen[stmt], stmt)
	got := resultDigest(res)
	golden.got[key] = got
	if *updateGolden {
		return
	}
	want, ok := golden.want[key]
	if !ok {
		t.Fatalf("no golden digest for %q; run go test ./internal/query -update-golden and review the diff", key)
	}
	if got != want {
		t.Fatalf("golden %q: result digest %s, recorded %s\nrows: %v", key, got, want, res.Rows())
	}
}
