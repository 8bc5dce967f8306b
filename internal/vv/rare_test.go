package vv

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// TestRareMatrixPasses is the unbiasedness acceptance criterion: the
// importance-sampling estimate must match the closed-form Master
// reference within the Bonferroni budget for every tilt strength —
// including tilt 0, where the identity gates are exact — across
// several master seeds.
func TestRareMatrixPasses(t *testing.T) {
	seeds := []uint64{1, 2}
	if !testing.Short() {
		seeds = append(seeds, 3, 17)
	}
	for _, seed := range seeds {
		rep, err := RunRareMatrix(Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Pass {
			for _, sc := range rep.Scenarios {
				for _, g := range sc.Gates {
					if !g.Pass {
						t.Errorf("seed %d: %s/%s failed (value %g, p %g)", seed, sc.Name, g.Name, g.Value, g.PValue)
					}
				}
			}
			t.Fatalf("seed %d: rare matrix failed", seed)
		}
		tilts := map[float64]bool{}
		for _, sc := range rep.Scenarios {
			if sc.Rare == nil {
				t.Fatalf("seed %d: row %s carries no rare aggregate", seed, sc.Name)
			}
			tilts[sc.Rare.TiltEV] = true
		}
		if len(tilts) < 3 || !tilts[0] {
			t.Fatalf("seed %d: want >= 3 tilt strengths including 0, got %v", seed, tilts)
		}
	}
}

// TestRareTiltZeroExact pins the tilt-0 row's exact contracts: the
// naive-identity and unit-weight gates are "exact" statistics, the ESS
// is exactly the path count and the LR variance exactly 0.
func TestRareTiltZeroExact(t *testing.T) {
	rep, err := RunRareMatrix(Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var row *ScenarioReport
	for i := range rep.Scenarios {
		if rep.Scenarios[i].Name == "rare-tilt0" {
			row = &rep.Scenarios[i]
		}
	}
	if row == nil {
		t.Fatal("no rare-tilt0 row in the rare matrix")
	}
	found := map[string]bool{}
	for _, g := range row.Gates {
		if g.Statistic == "exact" {
			found[g.Name] = true
			if !g.Pass || math.Float64bits(g.Value) != 0 {
				t.Fatalf("exact gate %s: value %g pass %v", g.Name, g.Value, g.Pass)
			}
		}
	}
	for _, name := range []string{"rare-weight-mean", "rare-lr-exact", "rare-tilt0-naive-identity"} {
		if !found[name] {
			t.Fatalf("tilt-0 row missing exact gate %s (gates: %+v)", name, row.Gates)
		}
	}
	st := row.Rare
	if math.Float64bits(st.ESS) != math.Float64bits(float64(row.Paths)) {
		t.Fatalf("tilt-0 ESS %g, want exactly %d", st.ESS, row.Paths)
	}
	if math.Float64bits(st.LRVar) != 0 {
		t.Fatalf("tilt-0 LR variance %g, want exactly 0", st.LRVar)
	}
}

// weightSimulator draws through the production kernel and then
// re-derives each path's thinning record with markov.Reference on the
// same stream. With dropLast it replaces every path's log-LR by the
// recomputation over all but the LAST candidate — the classic
// bookkeeping bug where one thinning term is missed, while the path
// itself stays honest. The last term is the one a mean-based gate has
// power against: dropping an *early* factor leaves the remaining
// product a conditional likelihood ratio (its mean is still exactly 1
// by the martingale property, and the equilibrated occupancy forgets
// the early state to within e^-12), so only the exact lr-exact gate
// would see it. The last factor is correlated with the terminal state,
// so its loss shifts the occupancy estimate by orders of magnitude.
// Without dropLast it is the honest twin through the same plumbing.
func weightSimulator(dropLast bool) Simulator {
	return func(ctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream) ([]*markov.Path, []float64, error) {
		paths, lrs, err := new(markov.BatchState).Run(ctx, traps, bias, t0, t1, tiltEV, r)
		if err != nil {
			return nil, nil, err
		}
		var child rng.Stream
		var rec markov.ThinningRecord
		for k, tr := range traps {
			r.SplitInto(uint64(k), &child)
			if _, _, err := markov.Reference(ctx, tr, bias.Eval, t0, t1, tiltEV, &child, &rec); err != nil {
				return nil, nil, err
			}
			if n := len(rec.Times); dropLast && n > 0 {
				// Recomputing over the first n-1 candidates IS the sum
				// with the last term dropped (RecomputeLogLR replays in
				// candidate order).
				prefix := markov.ThinningRecord{Times: rec.Times[:n-1], Accepts: rec.Accepts[:n-1]}
				lrs[k] = markov.RecomputeLogLR(ctx, tr, bias.Eval, tiltEV, &prefix)
			}
		}
		return paths, lrs, nil
	}
}

// TestBrokenWeightCaught is the detection-power criterion of the rare
// battery, mirroring TestBrokenThinningCaught: a weight missing one
// log-LR term must be rejected — by the exact incremental-vs-recompute
// gate, and independently by the statistical weight-mean gate (the
// control variate with known mean 1).
func TestBrokenWeightCaught(t *testing.T) {
	rows := RareMatrix()
	var sc RareScenario
	for _, r := range rows {
		if r.Name == "rare-deep" {
			sc = r
		}
	}
	if sc.Name == "" {
		t.Fatal("no rare-deep row")
	}
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	sr, err := RunRareScenario(sc, weightSimulator(true), rng.New(9), budget)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Pass {
		t.Fatalf("broken weight (dropped LR term) passed the %s battery", sc.Name)
	}
	exactCaught, statCaught := false, false
	for _, g := range sr.Gates {
		if g.Pass {
			continue
		}
		switch {
		case g.Name == "rare-lr-exact":
			exactCaught = true
			t.Logf("caught by %s: %g mismatched paths", g.Name, g.Value)
		case g.Statistic == "clt-z":
			statCaught = true
			t.Logf("caught by %s (%s): z=%g p=%g", g.Name, g.Statistic, g.Value, g.PValue)
		}
	}
	if !exactCaught {
		t.Fatalf("rare-lr-exact did not reject the dropped term; gates: %+v", sr.Gates)
	}
	if !statCaught {
		t.Fatalf("no statistical gate rejected the broken weight; gates: %+v", sr.Gates)
	}
}

// TestBrokenWeightSanity: the honest wrapper through the same plumbing
// passes, so the rejection above is attributable to the dropped term.
func TestBrokenWeightSanity(t *testing.T) {
	rows := RareMatrix()
	var sc RareScenario
	for _, r := range rows {
		if r.Name == "rare-deep" {
			sc = r
		}
	}
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	sr, err := RunRareScenario(sc, weightSimulator(false), rng.New(9), budget)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Pass {
		t.Fatalf("honest wrapper failed the battery: %+v", sr.Gates)
	}
}

// TestRareRowsKernelIndependent: with rare rows enabled, the report
// drawn through the production kernel must be byte-identical to the
// one drawn path by path through markov.Reference — the tilted lanes,
// like the naive ones, are bit-identical to the literal kernel.
func TestRareRowsKernelIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("full double matrix skipped in -short")
	}
	prod, err := RunMatrix(Options{Seed: 7, Rare: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunMatrix(Options{Seed: 7, Rare: true, Sim: referenceSimulator})
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Pass || !ref.Pass {
		t.Fatalf("rare-extended matrix failed: prod=%v ref=%v", prod.Pass, ref.Pass)
	}
	a, err := json.Marshal(prod)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("rare-extended production and reference reports diverge")
	}
}

// TestRareStandaloneMatchesCombined: a row's ensemble derives from
// root.Split(500+i) in both the standalone rare matrix and the
// combined RunMatrix, so the reported aggregates (which don't depend
// on the budget) are bit-identical across the two entry points.
func TestRareStandaloneMatchesCombined(t *testing.T) {
	alone, err := RunRareMatrix(Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := RunMatrix(Options{Seed: 4, Rare: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]string{}
	for _, sc := range combined.Scenarios {
		if sc.Rare != nil {
			b, err := json.Marshal(sc.Rare)
			if err != nil {
				t.Fatal(err)
			}
			stats[sc.Name] = string(b)
		}
	}
	if len(stats) != len(alone.Scenarios) {
		t.Fatalf("combined run has %d rare rows, standalone %d", len(stats), len(alone.Scenarios))
	}
	for _, sc := range alone.Scenarios {
		b, err := json.Marshal(sc.Rare)
		if err != nil {
			t.Fatal(err)
		}
		if stats[sc.Name] != string(b) {
			t.Fatalf("row %s aggregates differ between entry points:\n%s\n%s", sc.Name, stats[sc.Name], b)
		}
	}
}
