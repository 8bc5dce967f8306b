// Command perfbench is the SAMURAI repository benchmark. One command
// runs one of four workloads for a fixed time, checks every output it
// produced against an independent in-process recomputation, and prints
// its metrics as the last line of standard output:
//
//	perfbench -workload array-service -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (set-up time,
// operation wall time, cells per second, allocation per operation).
// With -trace 1 the same workload runs twice in one process — first
// untraced, then with per-layer instrumentation — and the metrics are
// the per-layer breakdown listed in LAYERS.md, including the tracing
// overhead and the unattributed remainder.
//
// The workloads and their parameters are described in workloads.go and
// BENCHMARK.json at the repository root; run.sh builds this program from
// the surrounding source tree and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
}

// setupRepeats is how many times each workload brings its system up;
// setup_s is the median, and the last instance serves the timed window.
const setupRepeats = 11

// minOps is the least number of operations a timed window runs, even
// when the first ones overrun the window.
const minOps = 3

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the per-layer traced variant")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for WAL files")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	mk, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return fmt.Errorf("seconds must be positive, got %g", o.seconds)
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	w, err := mk(o.seed, dir, o.trace)
	if err != nil {
		return err
	}
	res, err := measure(context.Background(), w, o)
	if err != nil {
		return err
	}
	rep := report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   res.metrics,
	}
	printTable(os.Stdout, o, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// workload is one benchmark scenario. Prepare readies the inputs of
// the next set-up outside the timing (e.g. a copy of the pre-populated
// WAL), Setup brings a fresh system instance up and Teardown stops it;
// Op runs operation i, whose inputs
// are a pure function of the workload seed and i; Verify recomputes
// the outputs of the finished operations outside every timed region
// and returns a failure reason per operation index.
type workload interface {
	Prepare() error
	Setup(ctx context.Context) error
	Teardown() error
	Op(ctx context.Context, i int) opResult
	Verify(ctx context.Context, ops []int) map[int]string
	// GCPerOp reports whether a collection runs before every operation
	// (long operations) or only once before the window (tiny ones).
	GCPerOp() bool
	// Tracer returns the per-layer instrumentation, or nil when the
	// workload has none beyond the common runtime and counter folds.
	Tracer() layerTracer
}

// opResult is what one operation produced.
type opResult struct {
	// units is the simulated work: cells for the service workloads,
	// device traces for the spectra panel.
	units int
	// failure, when set, marks the operation failed (non-2xx, job not
	// done, retried cell) before any output check.
	failure string
}

// layerTracer collects the per-layer breakdown of a traced window.
type layerTracer interface {
	// Enable switches the instrumentation on for the traced phase.
	Enable()
	// Finish adds the workload's per-layer metrics for the traced
	// operations. It runs after the profile has stopped, so fetching
	// span trees from the service is not attributed to any layer.
	Finish(ctx context.Context, ops []int, walls []time.Duration, m map[string]metric)
}

// phase is the record of one timed window.
type phase struct {
	ops       []int
	walls     []time.Duration
	units     []int
	allocated uint64
	failures  map[int]string
}

// result is the outcome of measure.
type result struct {
	attempted, failed int
	metrics           map[string]metric
}

// measure brings the system up setupRepeats times, runs the timed
// window (and, traced, a second instrumented one), verifies every
// operation and assembles the metrics.
func measure(ctx context.Context, w workload, o options) (*result, error) {
	hostBefore := hostProbe()
	var setups []time.Duration
	for k := 0; k < setupRepeats; k++ {
		if k > 0 {
			if err := w.Teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		if err := w.Prepare(); err != nil {
			return nil, fmt.Errorf("preparing setup: %w", err)
		}
		runtime.GC()
		start := time.Now()
		if err := w.Setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	defer func() {
		if err := w.Teardown(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		}
	}()

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	next := 0
	plain := runWindow(ctx, w, &next, window, nil)
	var traced *phase
	var tracedStats *tracedRun
	if o.trace {
		tracedStats = startTracedRun()
		traced = runWindow(ctx, w, &next, window, w.Tracer())
		tracedStats.stop()
	}

	all := append([]int(nil), plain.ops...)
	failures := plain.failures
	if traced != nil {
		all = append(all, traced.ops...)
		for i, why := range traced.failures {
			failures[i] = why
		}
	}
	for i, why := range w.Verify(ctx, all) {
		if _, seen := failures[i]; !seen {
			failures[i] = why
		}
	}
	fmt.Printf("# set-up s: %s\n# operation wall s (untraced window): %s\n", spread(setups), spread(plain.walls))
	fmt.Printf("# host probe s: before=%.5f after=%.5f\n", hostBefore.Seconds(), hostProbe().Seconds())
	for _, i := range sortedKeys(failures) {
		fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %s\n", i, failures[i])
	}

	res := &result{attempted: len(all), failed: len(failures), metrics: map[string]metric{}}
	if !o.trace {
		res.metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
		res.metrics["wall_s"] = metric{median(plain.walls).Seconds(), "s"}
		res.metrics["cells_per_s"] = metric{float64(sumInts(plain.units)) / sum(plain.walls).Seconds(), "1/s"}
		res.metrics["alloc_mb"] = metric{float64(plain.allocated) / 1e6 / float64(len(plain.ops)), "MB"}
		return res, nil
	}
	tracedStats.finish(ctx, w.Tracer(), plain, traced, res.metrics)
	return res, nil
}

// runWindow runs operations until the window has elapsed (and at
// least minOps of them). With lt non-nil the instrumentation is on.
func runWindow(ctx context.Context, w workload, next *int, window time.Duration, lt layerTracer) *phase {
	if lt != nil {
		lt.Enable()
	}
	p := &phase{failures: map[int]string{}}
	runtime.GC()
	allocStart := allocatedBytes()
	start := time.Now()
	for len(p.ops) < minOps || time.Since(start) < window {
		i := *next
		*next++
		if w.GCPerOp() {
			pause := time.Now()
			runtime.GC()
			start = start.Add(time.Since(pause))
		}
		a0 := allocatedBytes()
		t0 := time.Now()
		r := w.Op(ctx, i)
		d := time.Since(t0)
		p.allocated += allocatedBytes() - a0
		p.ops = append(p.ops, i)
		p.walls = append(p.walls, d)
		p.units = append(p.units, r.units)
		if r.failure != "" {
			p.failures[i] = r.failure
		}
	}
	if !w.GCPerOp() {
		// Tiny operations: count everything the window allocated,
		// background goroutines included.
		p.allocated = allocatedBytes() - allocStart
	}
	return p
}

// probeSink keeps the host probe's loop from being optimised away.
var probeSink float64

// hostProbe times a fixed loop of the benchmark's own, nine times, and
// returns the median. It runs outside every timed region and touches no
// program code, so comparing it between runs tells a change in the
// host's speed (other tenants of a shared machine) from one in the
// program.
func hostProbe() time.Duration {
	a := make([]float64, 1<<14)
	ds := make([]time.Duration, 9)
	for k := range ds {
		start := time.Now()
		x := 1.0
		for r := 0; r < 1200; r++ {
			for i := range a {
				a[i] = a[i]*0.999 + x
				x += 1e-9
			}
		}
		ds[k] = time.Since(start)
	}
	probeSink += a[len(a)-1]
	return median(ds)
}

// allocatedBytes reads the cumulative heap allocation without stopping
// the world.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for none. Every reported median uses this rule.
func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread summarises durations as count, min, median and max seconds.
func spread(ds []time.Duration) string {
	if len(ds) == 0 {
		return "none"
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return fmt.Sprintf("n=%d min=%.4f median=%.4f max=%.4f", len(s), s[0].Seconds(), median(s).Seconds(), s[len(s)-1].Seconds())
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// printTable writes the human-readable metric table that precedes the
// JSON line.
func printTable(f *os.File, o options, rep report) {
	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(f, "# %s seed=%d seconds=%g %s: attempted=%d failed=%d\n",
		o.workload, o.seed, o.seconds, mode, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "#   %-34s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}
