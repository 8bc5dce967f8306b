package vv

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// laneSimulator lifts a one-path draw to the ensemble seam: path k
// draws from r.SplitInto(k), exactly as the production kernel's lane k
// does.
func laneSimulator(draw func(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream) (*markov.Path, float64, error)) Simulator {
	return func(ctx trap.Context, traps []trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream) ([]*markov.Path, []float64, error) {
		paths := make([]*markov.Path, len(traps))
		lrs := make([]float64, len(traps))
		var child rng.Stream
		for k, tr := range traps {
			r.SplitInto(uint64(k), &child)
			p, lr, err := draw(ctx, tr, bias, t0, t1, tiltEV, &child)
			if err != nil {
				return nil, nil, err
			}
			paths[k], lrs[k] = p, lr
		}
		return paths, lrs, nil
	}
}

// referenceSimulator draws every path with the literal per-candidate
// kernel, markov.Reference.
var referenceSimulator = laneSimulator(func(ctx trap.Context, tr trap.Trap, bias *waveform.PWL, t0, t1, tiltEV float64, r *rng.Stream) (*markov.Path, float64, error) {
	return markov.Reference(ctx, tr, bias.Eval, t0, t1, tiltEV, r, nil)
})

// TestBatchKernelReportIdentical is the production kernel's conformance
// row in its strongest form: the report drawn through the compiled
// kernel must be byte-identical to the report drawn path by path
// through markov.Reference. Any SoA-layout or chunked-draw bug that
// perturbs a single accept decision in any ensemble breaks this.
func TestBatchKernelReportIdentical(t *testing.T) {
	prod, err := RunMatrix(Options{Seed: 7, E2E: false})
	if err != nil {
		t.Fatalf("production RunMatrix: %v", err)
	}
	ref, err := RunMatrix(Options{Seed: 7, E2E: false, Sim: referenceSimulator})
	if err != nil {
		t.Fatalf("reference RunMatrix: %v", err)
	}
	if !prod.Pass {
		t.Errorf("production kernel failed the conformance matrix")
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
		t.Fatalf("production and reference reports diverge:\n%s\n---\n%s", a, b)
	}
}

// TestRunScenarioBatchMatchesSequential pins the per-scenario identity
// for the first matrix row, so a divergence is attributable before the
// whole-report diff above triggers.
func TestRunScenarioBatchMatchesSequential(t *testing.T) {
	sc := mustMatrix(t)[0]
	budget := Budget{Alpha: DefaultAlpha, Gates: sc.GateCount()}
	prod, err := RunScenario(sc, new(markov.BatchState).Run, rng.New(11), budget)
	if err != nil {
		t.Fatalf("production RunScenario: %v", err)
	}
	ref, err := RunScenario(sc, referenceSimulator, rng.New(11), budget)
	if err != nil {
		t.Fatalf("reference RunScenario: %v", err)
	}
	a, _ := json.Marshal(prod)
	b, _ := json.Marshal(ref)
	if !bytes.Equal(a, b) {
		t.Fatalf("scenario reports differ:\n%s\n---\n%s", a, b)
	}
}

// TestReportGoldenSeed1 pins the seed-1 report of the synthetic and
// rare rows byte for byte (the end-to-end suite runs the circuit and is
// left to make vv). testdata/report_seed1.json is the report as
// samuraivv marshals it, without the run_info provenance member.
func TestReportGoldenSeed1(t *testing.T) {
	rep, err := RunMatrix(Options{Seed: 1, E2E: false, Rare: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/report_seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("seed-1 report diverges from testdata/report_seed1.json:\n%s", got)
	}
}
