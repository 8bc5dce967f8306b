package main

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"samurai"
	"samurai/internal/experiments"
	"samurai/internal/jobd"
	"samurai/internal/montecarlo"
	"samurai/internal/rareevent"
)

// bitsEqual compares two values field by field, floats by their bit
// patterns: a single flipped bit anywhere is a mismatch, and NaNs with
// equal bits match.
func bitsEqual(a, b any) bool {
	return bitsEqualValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func bitsEqualValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqualValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqualValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqualValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		it := a.MapRange()
		for it.Next() {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !bitsEqualValue(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.String:
		return a.String() == b.String()
	}
	panic("bitsEqual: unsupported kind " + a.Kind().String())
}

// checkArrayResult checks a finished array or rare_array job: one
// record per cell in index order, and a summary that the records
// reproduce bit for bit.
func checkArrayResult(spec jobd.Spec, res jobResult) error {
	if res.Summary == nil {
		return fmt.Errorf("result has no summary")
	}
	if len(res.Cells) != spec.Cells {
		return fmt.Errorf("result has %d cell records, want %d", len(res.Cells), spec.Cells)
	}
	for i, c := range res.Cells {
		if c.Index != i {
			return fmt.Errorf("cell record %d has index %d", i, c.Index)
		}
		if c.Failed != (c.Errors > 0) {
			return fmt.Errorf("cell %d: failed=%v with %d write errors", i, c.Failed, c.Errors)
		}
	}
	if want := summaryOf(spec, res.Cells); !bitsEqual(want, *res.Summary) {
		return fmt.Errorf("summary %+v does not match the one its cell records give, %+v", *res.Summary, want)
	}
	return nil
}

// summaryOf recomputes a job summary from its cell records with the
// operations a single-node sweep uses: counts and rates and, for rare
// jobs, the weighted rareevent aggregate accumulated in index order.
func summaryOf(spec jobd.Spec, cells []jobd.CellRecord) jobd.Summary {
	var sum jobd.Summary
	trapSum := 0
	var est rareevent.Estimator
	for _, c := range cells {
		x := 0.0
		if c.Failed {
			sum.NumFailed++
			x = 1
		}
		trapSum += c.TrapCount
		est.Add(math.Exp(c.LogLR), x)
	}
	sum.ErrorRate = float64(sum.NumFailed) / float64(spec.Cells)
	sum.MeanTraps = float64(trapSum) / float64(spec.Cells)
	if spec.Type == jobd.TypeRareArray {
		stats := est.Stats(spec.TiltEV)
		sum.Rare = &stats
	}
	return sum
}

// recomputeCell simulates cell i of an array or rare_array spec in
// process, through the same public runners the service uses, and
// returns its checkpoint record.
func recomputeCell(ctx context.Context, spec jobd.Spec, i int) (jobd.CellRecord, error) {
	cfg, err := spec.ArrayConfig()
	if err != nil {
		return jobd.CellRecord{}, err
	}
	cfg.Workers = 1
	opts := montecarlo.ArrayOptions{Subset: &montecarlo.IndexRange{Lo: i, Hi: i + 1}}
	var run montecarlo.CtxRunner
	if spec.Type == jobd.TypeRareArray {
		opts.RareEvent = &montecarlo.RareEventSpec{TiltEV: spec.TiltEV, Runner: samurai.RareArrayRunnerCtx()}
	} else {
		run = samurai.ArrayRunnerCtx()
	}
	res, err := montecarlo.RunArrayCtx(ctx, cfg, run, opts)
	if err != nil {
		return jobd.CellRecord{}, err
	}
	return jobd.NewCellRecord(res.Outcomes[i]), nil
}

// checkCell bit-compares a service's record of cell i with an
// in-process recomputation.
func checkCell(ctx context.Context, spec jobd.Spec, res jobResult, i int) error {
	want, err := recomputeCell(ctx, spec, i)
	if err != nil {
		return fmt.Errorf("recomputing cell %d: %w", i, err)
	}
	if i >= len(res.Cells) || !bitsEqual(want, res.Cells[i]) {
		return fmt.Errorf("cell %d record differs from its in-process recomputation", i)
	}
	return nil
}

// checkFig3 asserts the claims the Fig 3 panel must show (the ones
// TestFig3Claims and BenchmarkFig3SpectralDensity report) and that
// every aggregate is the one its device rows give. The claims: the old
// node has several times the traps of the new one and a 1/f slope near
// −1, and the few-trap node scatters more and fits worse (residual
// contrast above 1). They are evaluated over the devices whose fit is
// defined: analysis.LogLogSlope returns NaN for a spectrum with fewer
// than two positive bins in the band (a new-node device none of whose
// traps switched in the window), and experiments.Fig3 averages that NaN
// into the panel's own aggregates.
func checkFig3(res *experiments.Fig3Result) error {
	for _, t := range []experiments.Fig3TechResult{res.Old, res.New} {
		if err := checkFig3Aggregates(t); err != nil {
			return fmt.Errorf("%s: %w", t.Tech, err)
		}
	}
	if res.Old.MeanTraps < 5*res.New.MeanTraps {
		return fmt.Errorf("trap count contrast too weak: %g vs %g", res.Old.MeanTraps, res.New.MeanTraps)
	}
	old, nu := fittedStats(res.Old), fittedStats(res.New)
	if old.n < 2 || nu.n < 2 {
		return fmt.Errorf("too few fitted devices: %d old, %d new", old.n, nu.n)
	}
	if math.Abs(old.meanSlope+1) > 0.35 {
		return fmt.Errorf("old-node slope %g, want about -1", old.meanSlope)
	}
	if nu.slopeStd < old.slopeStd {
		return fmt.Errorf("new-node slope scatter %g below old-node %g", nu.slopeStd, old.slopeStd)
	}
	if c := nu.meanResidual / old.meanResidual; !(c > 1) {
		return fmt.Errorf("residual contrast %g, want > 1", c)
	}
	return nil
}

// fig3Fit summarises the devices of one technology whose fit is defined.
type fig3Fit struct {
	n                                 int
	meanSlope, slopeStd, meanResidual float64
}

func fittedStats(t experiments.Fig3TechResult) fig3Fit {
	var f fig3Fit
	for _, d := range t.Devices {
		if !math.IsNaN(d.Slope) && !math.IsNaN(d.Residual) {
			f.n++
			f.meanSlope += d.Slope
			f.meanResidual += d.Residual
		}
	}
	if f.n == 0 {
		return f
	}
	f.meanSlope /= float64(f.n)
	f.meanResidual /= float64(f.n)
	for _, d := range t.Devices {
		if !math.IsNaN(d.Slope) && !math.IsNaN(d.Residual) {
			f.slopeStd += (d.Slope - f.meanSlope) * (d.Slope - f.meanSlope)
		}
	}
	f.slopeStd = math.Sqrt(f.slopeStd / float64(f.n))
	return f
}

// checkFig3Rows bit-compares the first n device rows of both
// technologies of a panel with a recomputed reference panel.
func checkFig3Rows(res, ref *experiments.Fig3Result, n int) error {
	for _, p := range [][2]experiments.Fig3TechResult{{res.Old, ref.Old}, {res.New, ref.New}} {
		if len(p[0].Devices) < n || len(p[1].Devices) < n || !bitsEqual(p[0].Devices[:n], p[1].Devices[:n]) {
			return fmt.Errorf("%s: device rows 0..%d differ from their recomputation", p[0].Tech, n-1)
		}
	}
	return nil
}

// checkFig3Aggregates recomputes a technology's aggregates from its
// device rows in the order experiments.Fig3 uses and bit-compares them.
func checkFig3Aggregates(t experiments.Fig3TechResult) error {
	want := t
	want.MeanTraps, want.MeanResidual, want.MaxResidual, want.MeanSlope, want.SlopeStd = 0, 0, 0, 0, 0
	traps := 0
	for _, d := range t.Devices {
		traps += d.Traps
	}
	n := float64(len(t.Devices))
	want.MeanTraps = float64(traps) / n
	for _, d := range t.Devices {
		want.MeanResidual += d.Residual
		want.MeanSlope += d.Slope
		want.MaxResidual = math.Max(want.MaxResidual, d.Residual)
	}
	want.MeanResidual /= n
	want.MeanSlope /= n
	for _, d := range t.Devices {
		dev := d.Slope - want.MeanSlope
		want.SlopeStd += dev * dev
	}
	want.SlopeStd = math.Sqrt(want.SlopeStd / n)
	if !bitsEqual(want, t) {
		return fmt.Errorf("aggregates do not match the device rows")
	}
	return nil
}
