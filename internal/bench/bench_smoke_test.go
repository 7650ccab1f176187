package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// Smoke tests: each experiment runs at tiny scale and produces a table
// with the expected shape. The real measurements live in cmd/vortex-bench.

func TestFig7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-model experiment")
	}
	res, err := Fig7(context.Background(), 600*time.Millisecond, 4, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appends == 0 || len(res.Points) == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	p50 := res.Overall.Quantile(0.5)
	if p50 < 5*time.Millisecond || p50 > 40*time.Millisecond {
		t.Fatalf("p50 = %v, expected the calibrated ~10ms regime", p50)
	}
	var buf bytes.Buffer
	PrintFig7(&buf, res)
	if !strings.Contains(buf.String(), "p99") {
		t.Fatal("table missing percentile columns")
	}
}

func TestCompressionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke")
	}
	rows, err := Compression(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("cases = %d", len(rows))
	}
	if rows[2].Ratio <= rows[0].Ratio {
		t.Fatalf("repetitive (%.1f) must compress better than typical (%.1f)", rows[2].Ratio, rows[0].Ratio)
	}
	var buf bytes.Buffer
	PrintCompression(&buf, rows)
	if !strings.Contains(buf.String(), "ratio") {
		t.Fatal("table missing ratio column")
	}
}

func TestUnaryVsBidiSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke")
	}
	rows, err := UnaryVsBidi(context.Background(), 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	var unary, bidi int64
	for _, r := range rows {
		switch r.Mode {
		case "unary":
			unary = r.ConnectionSetups
		case "bidi":
			bidi = r.ConnectionSetups
		}
	}
	if bidi <= unary {
		t.Fatalf("bi-di must pay more connection setups over a sparse fleet: unary=%d bidi=%d", unary, bidi)
	}
}

func TestWOSvsROSSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke")
	}
	scans, res, err := WOSvsROS(context.Background(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(scans) != 2 || scans[0].Rows != scans[1].Rows {
		t.Fatalf("scan rows diverge across layouts: %+v", scans)
	}
	if len(res.Rows()) == 0 {
		t.Fatal("query returned nothing")
	}
}

func TestReclusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke")
	}
	steps, err := Recluster(context.Background(), 2, 400)
	if err != nil {
		t.Fatal(err)
	}
	last := steps[len(steps)-1]
	if last.Step != "after recluster" || last.Ratio != 1 {
		t.Fatalf("final step = %+v, want ratio 1", last)
	}
	if steps[len(steps)-2].Ratio >= 1 {
		t.Fatal("deltas did not degrade the clustering ratio; experiment is vacuous")
	}
	var buf bytes.Buffer
	PrintRecluster(&buf, steps)
	if !strings.Contains(buf.String(), "clustering ratio") {
		t.Fatal("table missing ratio column")
	}
}
