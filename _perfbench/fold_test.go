package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// One array run [0,100) with two cells simulated in parallel by two
	// workers, [10,60) and [40,90); each cell's circuit transient
	// covers part of it.
	spans := []span{
		{ID: 1, Parent: 99, Path: "montecarlo.run_array", Start: 0, Dur: ms(100)},
		{ID: 2, Parent: 1, Path: "montecarlo.run_array/cell", Start: ms(10), Dur: ms(50)},
		{ID: 3, Parent: 1, Path: "montecarlo.run_array/cell", Start: ms(40), Dur: ms(50)},
		{ID: 4, Parent: 2, Path: "montecarlo.run_array/cell/circuit.transient", Start: ms(15), Dur: ms(30)},
		{ID: 5, Parent: 3, Path: "montecarlo.run_array/cell/circuit.transient", Start: ms(45), Dur: ms(40)},
	}
	self, wall := selfTimes(spans)
	if wall != ms(100) {
		t.Errorf("wall = %v, want 100ms", wall)
	}
	// run_array: 100 − |[10,90)| = 20; cells: (50−30) + (50−40) = 30.
	if got := self["montecarlo"]; got != ms(50) {
		t.Errorf("montecarlo self = %v, want 50ms", got)
	}
	if got := self["circuit"]; got != ms(70) {
		t.Errorf("circuit self = %v, want 70ms", got)
	}
	// Self times add up to the thread time inside the tree, which
	// exceeds the wall when workers overlap.
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total != ms(120) {
		t.Errorf("total self = %v, want 120ms", total)
	}
}

func TestExtentIncludesGaps(t *testing.T) {
	// Two workers' cells of one fabric job, [5,20) and [30,45), with a
	// nested span: the simulation span runs from 5 to 45 even though no
	// cell runs in [20,30).
	spans := []span{
		{ID: 1, Path: "cell", Start: ms(30), Dur: ms(15)},
		{ID: 2, Path: "cell", Start: ms(5), Dur: ms(15)},
		{ID: 3, Parent: 2, Path: "cell/samurai.run", Start: ms(6), Dur: ms(10)},
	}
	if got := extent(spans); got != ms(40) {
		t.Errorf("extent = %v, want 40ms", got)
	}
	if _, wall := selfTimes(spans); wall != ms(30) {
		t.Errorf("union wall = %v, want 30ms", wall)
	}
	if got := extent(nil); got != 0 {
		t.Errorf("extent of none = %v, want 0", got)
	}
}

func TestSelfTimesClipsAndSeparatesRoots(t *testing.T) {
	spans := []span{
		// A child that overruns its parent only covers the parent's part.
		{ID: 1, Parent: 0, Path: "samurai.run", Start: 0, Dur: ms(10)},
		{ID: 2, Parent: 1, Path: "samurai.run/rtn", Start: ms(5), Dur: ms(10)},
		// A second root (another worker's cell) overlapping the first.
		{ID: 3, Parent: 0, Path: "cell", Start: ms(8), Dur: ms(12)},
		{ID: 4, Parent: 3, Path: "cell/samurai.run/traps/transistor/markov.uniformise", Start: ms(9), Dur: ms(2)},
	}
	self, wall := selfTimes(spans)
	if wall != ms(20) {
		t.Errorf("wall = %v, want 20ms (union of [0,10) and [8,20))", wall)
	}
	if self["samurai"] != ms(5) || self["rtn"] != ms(10) || self["montecarlo"] != ms(10) || self["markov"] != ms(2) {
		t.Errorf("self = %v", self)
	}
}

func TestUnionLength(t *testing.T) {
	all := interval{0, ms(1000)}
	cases := []struct {
		ivs  []interval
		want time.Duration
	}{
		{nil, 0},
		{[]interval{{ms(1), ms(3)}}, ms(2)},
		{[]interval{{ms(5), ms(8)}, {ms(1), ms(3)}, {ms(2), ms(4)}}, ms(6)},
		{[]interval{{ms(1), ms(10)}, {ms(2), ms(3)}}, ms(9)},
		{[]interval{{ms(1), ms(2)}, {ms(2), ms(3)}}, ms(2)},
	}
	for _, c := range cases {
		if got := unionLength(c.ivs, all); got != c.want {
			t.Errorf("unionLength(%v) = %v, want %v", c.ivs, got, c.want)
		}
	}
	if got := unionLength([]interval{{ms(0), ms(10)}}, interval{ms(4), ms(6)}); got != ms(2) {
		t.Errorf("clipped union = %v, want 2ms", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n       int
		pct     float64
		value   float64
		defined bool
	}{
		{10000, 99.9, 9990, true}, // 10 samples beyond p99.9
		{1000, 99, 990, true},     // 1 beyond p99.9, 10 beyond p99
		{999, 95, 950, true},      // 9.99 beyond p99 is not enough
		{200, 95, 190, true},
		{100, 90, 90, true},
		{40, 75, 30, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if ok != c.defined || pct != c.pct || v != c.value {
			t.Errorf("tail(%d samples) = (%g, %g, %v), want (%g, %g, %v)", c.n, pct, v, ok, c.pct, c.value, c.defined)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median of 1..3 = %g", got)
	}
}

func TestParsePromAndDelta(t *testing.T) {
	before := parseProm(`# HELP samurai_circuit_steps_accepted_total accepted steps
# TYPE samurai_circuit_steps_accepted_total counter
samurai_circuit_steps_accepted_total 100
samurai_mc_worker_busy_seconds_total{worker="0"} 1.5
samurai_mc_worker_busy_seconds_total{worker="1"} 2.5
samurai_mc_cell_seconds_bucket{le="0.001"} 3
samurai_mc_cell_seconds_sum 0.25
samurai_mc_cell_seconds_count 7
`)
	after := parseProm(`samurai_circuit_steps_accepted_total 160
samurai_mc_worker_busy_seconds_total{worker="0"} 2
samurai_mc_worker_busy_seconds_total{worker="1"} 4
samurai_mc_worker_busy_seconds_total{worker="2"} 1
samurai_mc_cell_seconds_sum 0.75
samurai_mc_cell_seconds_count 9
samurai_fabric_steals_total 2
`)
	d := counterDelta(before, after)
	want := map[string]float64{
		"samurai_circuit_steps_accepted_total": 60,
		"samurai_mc_worker_busy_seconds_total": 3,
		"samurai_mc_cell_seconds_sum":          0.5,
		"samurai_mc_cell_seconds_count":        2,
		"samurai_fabric_steals_total":          2,
	}
	for k, v := range want {
		if math.Abs(d[k]-v) > 1e-12 {
			t.Errorf("delta[%s] = %g, want %g", k, d[k], v)
		}
	}
	if before["samurai_mc_worker_busy_seconds_total"] != 4 {
		t.Errorf("label sets not summed: %g", before["samurai_mc_worker_busy_seconds_total"])
	}
}

func TestFoldProfileByPackage(t *testing.T) {
	st := func(fns ...string) []frame {
		out := make([]frame, len(fns))
		for i, f := range fns {
			out[i] = frame{fn: f}
			if strings.Contains(f, "num.fft") {
				out[i].file = "internal/num/fft.go"
			} else if strings.Contains(f, "num.") {
				out[i].file = "internal/num/lu.go"
			}
		}
		return out
	}
	samples := []cpuSample{
		// math.Exp under the Markov kernel is markov time.
		{st("math.Exp", "samurai/internal/trap.Context.Beta", "samurai/internal/markov.Uniformise"), 40},
		// The device model under Eq 3 composition is rtn time...
		{st("samurai/internal/device.softplus", "samurai/internal/rtn.Compose"), 10},
		// ...and under the transient, circuit time.
		{st("samurai/internal/device.MOSParams.Eval", "samurai/internal/circuit.(*Circuit).newton"), 20},
		// The numerics package splits by file: FFT vs LU.
		{st("samurai/internal/num.fftRadix2", "samurai/internal/analysis.Welch"), 5},
		{st("samurai/internal/num.(*LU).Solve", "samurai/internal/circuit.solve"), 5},
		// Collector work is gc wherever it sits.
		{st("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), 5},
		{st("runtime.gcAssistAlloc", "runtime.mallocgc", "samurai/internal/rtn.NFilled"), 3},
		// fsync under the WAL is service; JSON encoding is json.
		{st("syscall.Syscall", "os.(*File).Sync", "samurai/internal/jobd.(*Store).append"), 4},
		{st("encoding/json.(*encodeState).marshal", "samurai/internal/jobd.(*Store).append"), 3},
		// A helper with no named caller falls back to its own layer.
		{st("samurai/internal/rng.(*Stream).Uint64", "runtime.goexit"), 2},
		{st("runtime.futex"), 3},
	}
	shares, n := foldProfile(samples)
	if n != len(samples) {
		t.Fatalf("n = %d", n)
	}
	want := map[string]float64{
		"markov": 40, "rtn": 10, "circuit": 25, "analysis": 5, "gc": 8,
		"service": 4, "json": 3, "sim_other": 2, "other": 3,
	}
	total := 0.0
	for _, v := range want {
		total += v
	}
	for layer, v := range want {
		if math.Abs(shares[layer]-v/total) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", layer, shares[layer], v/total)
		}
	}
	for layer := range shares {
		if _, ok := want[layer]; !ok {
			t.Errorf("unexpected layer %q", layer)
		}
	}
}

// burnCPU spins long enough for the profiler to sample it.
//
//go:noinline
func burnCPU(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i) + x)
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	sink := burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if sink == 0 {
		t.Fatal("burn optimised away")
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, burn int64
	for _, s := range samples {
		total += s.nanos
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".burnCPU") {
				burn += s.nanos
				if !strings.HasSuffix(f.file, "fold_test.go") {
					t.Errorf("burnCPU frame file = %q", f.file)
				}
				break
			}
		}
	}
	if total == 0 || float64(burn) < 0.5*float64(total) {
		t.Errorf("burnCPU has %d of %d sampled ns; want the majority", burn, total)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestParseTraceJSONL(t *testing.T) {
	in := `{"trace_id":"00000000000000aa","dropped":0}
{"span_id":"0000000000000001","parent_id":"00000000000000aa","path":"montecarlo.run_array","inst":0,"start_ns":0,"dur_ns":100}
{"span_id":"0000000000000002","parent_id":"0000000000000001","path":"montecarlo.run_array/cell","inst":3,"start_ns":10,"dur_ns":50}
`
	spans, err := parseTraceJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != 1 || spans[1].Dur != 50 || spans[0].Parent != 0xaa {
		t.Fatalf("spans = %+v", spans)
	}
}
