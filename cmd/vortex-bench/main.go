// Command vortex-bench regenerates the paper's evaluation: every figure
// and quantitative claim gets a text table comparing the reproduction's
// measured shape with the paper's reported shape (see EXPERIMENTS.md).
//
// Usage:
//
//	vortex-bench -experiment all
//	vortex-bench -experiment fig7 -duration 30s -writers 48
//	vortex-bench -experiment fig8 -duration 20s
//	vortex-bench -experiment compression|unary-vs-bidi|wos-vs-ros|recluster|chaos
//
// Performance is measured elsewhere: benchmark/ holds the seeded
// workloads, and this command only reproduces the paper's shapes under
// the calibrated latency model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"vortex/internal/bench"
)

func main() {
	var (
		experiment   = flag.String("experiment", "all", "fig7 | fig8 | compression | unary-vs-bidi | wos-vs-ros | recluster | chaos | all")
		duration     = flag.Duration("duration", 15*time.Second, "measurement duration for fig7/fig8")
		writers      = flag.Int("writers", 32, "concurrent streams for fig7")
		rows         = flag.Int("rows", 20000, "row count for wos-vs-ros")
		chaosAppends = flag.Int("chaos-appends", 48, "append count for the chaos scenario")
	)
	flag.Parse()
	ctx := context.Background()
	out := os.Stdout

	ran := false
	run := func(name string, f func() error) {
		ran = true
		fmt.Fprintf(out, "== %s ==\n", name)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "(%s took %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	if want("fig7") {
		run("fig7", func() error {
			res, err := bench.Fig7(ctx, *duration, *writers, *duration/10)
			if err != nil {
				return err
			}
			bench.PrintFig7(out, res)
			return nil
		})
	}
	if want("fig8") {
		run("fig8", func() error {
			rows, err := bench.Fig8(ctx, *duration)
			if err != nil {
				return err
			}
			bench.PrintFig8(out, rows)
			return nil
		})
	}
	if want("compression") {
		run("compression", func() error {
			rows, err := bench.Compression(20000)
			if err != nil {
				return err
			}
			bench.PrintCompression(out, rows)
			return nil
		})
	}
	if want("unary-vs-bidi") {
		run("unary-vs-bidi", func() error {
			rows, err := bench.UnaryVsBidi(ctx, 200, 4000)
			if err != nil {
				return err
			}
			bench.PrintUnaryVsBidi(out, rows)
			return nil
		})
	}
	if want("wos-vs-ros") {
		run("wos-vs-ros", func() error {
			scan, _, err := bench.WOSvsROS(ctx, *rows)
			if err != nil {
				return err
			}
			bench.PrintScan(out, scan)
			return nil
		})
	}
	if want("recluster") {
		run("recluster", func() error {
			steps, err := bench.Recluster(ctx, 4, 3000)
			if err != nil {
				return err
			}
			bench.PrintRecluster(out, steps)
			return nil
		})
	}
	if want("chaos") {
		run("chaos", func() error {
			res, err := bench.Chaos(ctx, *chaosAppends)
			if err != nil {
				return err
			}
			bench.PrintChaos(out, res)
			return nil
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (see -experiment usage)\n", *experiment)
		os.Exit(2)
	}
}
