// Command perfbench is the repository's benchmark. It starts the
// serving tier in-process, drives one of three seeded workloads
// against it, checks every output against the simulator, and prints a
// report followed by one JSON result line. See NOTES.md.
//
//	go run . --workload small-openloop --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runLimit bounds a whole run, set-up and replay included.
const runLimit = 170 * time.Second

// buildDir is where the benchmark keeps its build and scratch state,
// inside the checkout it runs from.
const buildDir = ".bench_build"

var workloads = map[string]func(*bench, context.Context) error{
	"small-openloop": func(b *bench, ctx context.Context) error {
		fleet, specs, err := smallFleet()
		if err != nil {
			return err
		}
		return b.runServing(ctx, true, fleet, specs, b.openLoop(smallSchedule), "scheduled send time")
	},
	// Stateless daemons: see NOTES.md, "Disk traffic". It runs by hand
	// only: its figures drift with the host by a fifth, steal or not.
	// See NOTES.md.
	"catalog-closed": func(b *bench, ctx context.Context) error {
		fleet, specs, err := catalogFleet()
		if err != nil {
			return err
		}
		return b.runServing(ctx, false, fleet, specs, b.closedLoop, "actual send time")
	},
	// small-openloop in all three restore modes.
	"small-modes": func(b *bench, ctx context.Context) error {
		fleet, specs, err := smallFleet()
		if err != nil {
			return err
		}
		return b.runServing(ctx, true, fleet, specs, b.openLoop(modesSchedule), "scheduled send time")
	},
	// The write-path workload. It runs by hand only: its fsync-bound
	// figures are not steady enough on a shared disk to gate on. See
	// NOTES.md.
	"restore-churn": (*bench).runChurn,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "small-openloop or small-modes; by hand also catalog-closed or restore-churn")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 30, "measured load time")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := newBench(*name, *seed, *seconds, *trace == 1, dir)
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if err := wl(b, ctx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("run exceeded %v: %w", runLimit, err)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.info("rss_peak_mb", rssPeakMB(), "MB", 1, "VmHWM of the process hosting tier and client")
	return b.finish()
}

// spanPath is where a traced run writes its spans.
func (b *bench) spanPath() string {
	return filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
}

// finish prints the report and the result line; a failed output check
// makes the run incorrect and the exit status 1.
func (b *bench) finish() int {
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v conns=%d\n", b.workload, b.seed, b.seconds, b.traced, b.conns)
	for _, r := range b.rows {
		fmt.Printf("  %-22s %12.4f %-6s n=%-6d %s\n", r.Name, r.Value, r.Unit, r.N, r.Note)
	}
	metrics := b.metrics
	if b.traced {
		metrics = b.layerSet
		var names []string
		for k := range metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-34s %12.4f %s\n", k, metrics[k].Value, metrics[k].Unit)
		}
	}
	for _, p := range b.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	failed := b.failed
	if failed > b.attempted {
		failed = b.attempted
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.problems) == 0, b.attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(b.problems) > 0 {
		return 1
	}
	return 0
}
