package markov

import (
	"math"
	"testing"

	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// batchTestProfile builds a profile of n traps spanning depths and
// energies so the lanes cover fast, slow, skewed and near-pinned traps.
func batchTestProfile(ctx trap.Context, n int) trap.Profile {
	traps := make([]trap.Trap, n)
	for i := range traps {
		frac := 0.3 + 0.4*float64(i)/float64(n)
		traps[i] = trap.Trap{
			Y:          frac * ctx.Tox,
			E:          -0.04 + 0.08*float64(i%5)/4,
			InitFilled: i%2 == 0,
		}
	}
	return trap.Profile{Ctx: ctx, Traps: traps}
}

// batchBiases covers the PWL shapes the kernel special-cases:
// constant (single-point PWL), step (flat segments joined by sharp
// ramps, candidates landing exactly on breakpoints are possible), a
// multi-segment ramp (every candidate interpolates) and a mixed
// waveform alternating flat holds, ramps and dense breakpoints.
func batchBiases() map[string]*waveform.PWL {
	step, err := waveform.Step([]float64{0, 3e-4, 6e-4}, []float64{1.2, 0.4, 1.0}, 1e-8)
	if err != nil {
		panic(err)
	}
	ramp := &waveform.PWL{
		T: []float64{0, 2e-4, 5e-4, 9e-4},
		V: []float64{0.2, 1.2, 0.7, 1.1},
	}
	mixed := &waveform.PWL{
		T: []float64{1e-4, 2e-4, 2.5e-4, 4e-4, 4.1e-4, 4.2e-4, 4.3e-4, 7e-4, 8e-4},
		V: []float64{0.9, 0.9, 1.3, 1.3, 0.5, 1.1, 0.8, 0.8, 1.2},
	}
	return map[string]*waveform.PWL{
		"const": waveform.Constant(1.2),
		"step":  step,
		"ramp":  ramp,
		"mixed": mixed,
	}
}

// batchTilts are the energy tilts the kernel is pinned at: 0 (the
// untilted loops) and mild to deep importance-sampling tilts.
var batchTilts = []float64{0, -0.02, -0.05, -0.25}

// checkAgainstReference asserts that every lane of a Run is
// bit-identical (Float64bits) to Reference on parent.Split(k): the same
// path and the same log-LR. It returns the total transition count.
func checkAgainstReference(t *testing.T, ctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, tf, tilt float64, parent *rng.Stream, got []*Path, gotLR []float64) int {
	t.Helper()
	if len(got) != len(traps) || len(gotLR) != len(traps) {
		t.Fatalf("%d paths and %d log-LRs for %d lanes", len(got), len(gotLR), len(traps))
	}
	total := 0
	var child rng.Stream
	for k, tr := range traps {
		parent.SplitInto(uint64(k), &child)
		w, wantLR, err := Reference(ctx, tr, bias.Eval, t0, tf, tilt, &child, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := got[k]
		if err := g.Validate(); err != nil {
			t.Fatalf("lane %d: invalid path: %v", k, err)
		}
		if math.Float64bits(gotLR[k]) != math.Float64bits(wantLR) {
			t.Fatalf("lane %d: log-LR %x != %x (%g vs %g)", k,
				math.Float64bits(gotLR[k]), math.Float64bits(wantLR), gotLR[k], wantLR)
		}
		if len(g.Times) != len(w.Times) {
			t.Fatalf("lane %d: %d events, want %d", k, len(g.Times)-1, len(w.Times)-1)
		}
		for i := range w.Times {
			if math.Float64bits(g.Times[i]) != math.Float64bits(w.Times[i]) {
				t.Fatalf("lane %d event %d: %x != %x (%g vs %g)",
					k, i, math.Float64bits(g.Times[i]), math.Float64bits(w.Times[i]),
					g.Times[i], w.Times[i])
			}
			if g.Filled[i] != w.Filled[i] {
				t.Fatalf("lane %d event %d: state mismatch", k, i)
			}
		}
		total += len(w.Times) - 1
	}
	return total
}

// TestBatchMatchesSequential is the kernel's determinism pin: every
// lane of Run must be bit-identical (Float64bits) to Reference with the
// same split stream — path and log-LR — across constant, step, ramp and
// mixed biases and every tilt in batchTilts. The fast lanes draw
// hundreds of candidates, so each crosses many pre-draw chunk
// boundaries.
func TestBatchMatchesSequential(t *testing.T) {
	ctx := testCtx()
	pr := batchTestProfile(ctx, 23)
	t0, tf := 0.0, 1e-3
	maxCand := 0.0
	for _, tr := range pr.Traps {
		maxCand = math.Max(maxCand, ExpectedCandidates(ctx, tr, t0, tf))
	}
	if maxCand < 4*candChunk {
		t.Fatalf("fixture draws at most %g candidates per lane; want several %d-candidate chunks", maxCand, candChunk)
	}
	for name, bias := range batchBiases() {
		t.Run(name, func(t *testing.T) {
			for _, tilt := range batchTilts {
				root := rng.New(42)
				got, lrs, err := NewBatchState().Run(pr.Ctx, pr.Traps, bias, t0, tf, tilt, root)
				if err != nil {
					t.Fatal(err)
				}
				if checkAgainstReference(t, ctx, pr.Traps, bias, t0, tf, tilt, root, got, lrs) == 0 {
					t.Fatalf("tilt %g: degenerate fixture, no transitions in any lane", tilt)
				}
				for k, lr := range lrs {
					if tilt == 0 && math.Float64bits(lr) != 0 {
						t.Fatalf("tilt 0 lane %d: log-LR %g, want exactly +0.0", k, lr)
					}
				}
			}
		})
	}
}

// TestBatchWorkspaceReuse reuses one BatchState across runs of varying
// lane counts and tilts and checks results stay identical to the
// reference — the workspace must be fully re-initialised per Run.
func TestBatchWorkspaceReuse(t *testing.T) {
	ctx := testCtx()
	bias := batchBiases()["mixed"]
	bs := NewBatchState()
	for i, n := range []int{7, 3, 11, 5} {
		pr := batchTestProfile(ctx, n)
		root := rng.New(uint64(1000 + n))
		tilt := batchTilts[i%len(batchTilts)]
		got, lrs, err := bs.Run(pr.Ctx, pr.Traps, bias, 0, 5e-4, tilt, root)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, ctx, pr.Traps, bias, 0, 5e-4, tilt, root, got, lrs)
	}
}

// TestBatchCandidateTimesCrossSegments places breakpoints so densely
// that lanes repeatedly cross segment boundaries mid-path, exercising
// the resume-at-segment-boundary logic against the reference.
func TestBatchCandidateTimesCrossSegments(t *testing.T) {
	ctx := testCtx()
	// ~50 breakpoints over the horizon: segment dwell far below the mean
	// candidate spacing for the slow lanes, far above for fast lanes.
	nBp := 50
	T := make([]float64, nBp)
	V := make([]float64, nBp)
	for i := range T {
		T[i] = 1e-3 * float64(i) / float64(nBp-1)
		V[i] = 0.6 + 0.6*math.Sin(float64(i)*0.7)
	}
	bias := &waveform.PWL{T: T, V: V}
	pr := batchTestProfile(ctx, 16)
	for _, tilt := range []float64{0, -0.05} {
		root := rng.New(7)
		got, lrs, err := NewBatchState().Run(pr.Ctx, pr.Traps, bias, 0, 1e-3, tilt, root)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, ctx, pr.Traps, bias, 0, 1e-3, tilt, root, got, lrs)
	}
}

func TestBatchBadInterval(t *testing.T) {
	ctx := testCtx()
	pr := batchTestProfile(ctx, 2)
	if _, _, err := NewBatchState().Run(pr.Ctx, pr.Traps, waveform.Constant(1.2), 1, 1, 0, rng.New(1)); err != ErrBadInterval {
		t.Fatal("empty interval accepted")
	}
}

func TestBatchEmptyProfile(t *testing.T) {
	ctx := testCtx()
	paths, lrs, err := NewBatchState().Run(ctx, nil, waveform.Constant(1.2), 0, 1e-4, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 || len(lrs) != 0 {
		t.Fatalf("expected no paths, got %d", len(paths))
	}
}
