package main

import (
	"context"
	"math"
	"reflect"
	"testing"

	"samurai/internal/experiments"
	"samurai/internal/jobd"
)

// flipBits returns one copy of rec per bit-level corruption: a flipped
// low bit in each numeric field and in each VtShift entry, and the
// failure flag toggled.
func flipBits(rec jobd.CellRecord) []jobd.CellRecord {
	flip := func(f float64) float64 { return math.Float64frombits(math.Float64bits(f) ^ 1) }
	var out []jobd.CellRecord
	add := func(mut func(r *jobd.CellRecord)) {
		r := rec
		r.VtShift = map[string]float64{}
		for k, v := range rec.VtShift {
			r.VtShift[k] = v
		}
		mut(&r)
		out = append(out, r)
	}
	add(func(r *jobd.CellRecord) { r.Index ^= 1 })
	add(func(r *jobd.CellRecord) { r.TrapCount ^= 1 })
	add(func(r *jobd.CellRecord) { r.Errors ^= 1 })
	add(func(r *jobd.CellRecord) { r.Slow ^= 1 })
	add(func(r *jobd.CellRecord) { r.Failed = !r.Failed })
	add(func(r *jobd.CellRecord) { r.LogLR = flip(r.LogLR) })
	add(func(r *jobd.CellRecord) { r.GlitchDepth = flip(r.GlitchDepth) })
	for k := range rec.VtShift {
		k := k
		add(func(r *jobd.CellRecord) { r.VtShift[k] = flip(r.VtShift[k]) })
	}
	return out
}

func sampleRecord(i int) jobd.CellRecord {
	return jobd.CellRecord{
		Index: i, TrapCount: 17 + i, Errors: i % 2, Slow: 1, Failed: i%2 == 1,
		VtShift:     map[string]float64{"M1": 0.0123, "M2": -0.004, "M5": 1e-3},
		LogLR:       -0.37 * float64(i+1),
		GlitchDepth: 0.25,
	}
}

func TestBitsEqualRejectsEveryFlippedBit(t *testing.T) {
	rec := sampleRecord(3)
	if !bitsEqual(rec, sampleRecord(3)) {
		t.Fatal("identical records compare unequal")
	}
	for k, bad := range flipBits(rec) {
		if bitsEqual(rec, bad) {
			t.Errorf("corruption %d not detected: %+v", k, bad)
		}
	}
	if bitsEqual(math.Copysign(0, -1), 0.0) {
		t.Error("-0 and +0 compare equal bit-wise")
	}
	nan := math.NaN()
	if !bitsEqual(nan, nan) {
		t.Error("identical NaN bits compare unequal")
	}
}

// consistentResult builds a rare_array result whose summary is the one
// its records give.
func consistentResult(spec jobd.Spec) jobResult {
	var res jobResult
	for i := 0; i < spec.Cells; i++ {
		res.Cells = append(res.Cells, sampleRecord(i))
	}
	sum := summaryOf(spec, res.Cells)
	res.Summary = &sum
	return res
}

func TestCheckArrayResultRejectsCorruptRecords(t *testing.T) {
	spec := jobd.Spec{Type: jobd.TypeRareArray, Cells: 4, TiltEV: -0.1}
	res := consistentResult(spec)
	if err := checkArrayResult(spec, res); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	// Corruptions the summary exposes: trap counts, failure flags and
	// weights of any cell, and every summary field.
	for i := range res.Cells {
		for _, mut := range []func(r *jobd.CellRecord){
			func(r *jobd.CellRecord) { r.TrapCount ^= 1 },
			func(r *jobd.CellRecord) { r.Failed = !r.Failed; r.Errors = 1 - r.Errors },
			func(r *jobd.CellRecord) { r.LogLR = math.Float64frombits(math.Float64bits(r.LogLR) ^ 1) },
			func(r *jobd.CellRecord) { r.Index += 10 },
		} {
			bad := res
			bad.Cells = append([]jobd.CellRecord(nil), res.Cells...)
			mut(&bad.Cells[i])
			if checkArrayResult(spec, bad) == nil {
				t.Errorf("cell %d corruption accepted", i)
			}
		}
	}
	sum := reflect.ValueOf(res.Summary.Rare).Elem()
	for f := 0; f < sum.NumField(); f++ {
		bad := res
		rare := *res.Summary.Rare
		s := *res.Summary
		s.Rare = &rare
		bad.Summary = &s
		field := reflect.ValueOf(&rare).Elem().Field(f)
		switch field.Kind() {
		case reflect.Float64:
			field.SetFloat(math.Float64frombits(math.Float64bits(field.Float()) ^ 1))
		case reflect.Int:
			field.SetInt(field.Int() ^ 1)
		}
		if checkArrayResult(spec, bad) == nil {
			t.Errorf("flipped bit in rare summary field %s accepted", sum.Type().Field(f).Name)
		}
	}
	short := res
	short.Cells = res.Cells[:3]
	if checkArrayResult(spec, short) == nil {
		t.Error("missing cell record accepted")
	}
}

func TestCheckCellRecomputesInProcess(t *testing.T) {
	off := false
	spec := jobd.Spec{Type: jobd.TypeArray, Seed: 11, Cells: 2, Pattern: "1", WithRTN: &off, Workers: 1}
	good, err := simulateJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkArrayResult(spec, good); err != nil {
		t.Fatalf("service-shaped result rejected: %v", err)
	}
	for i := range good.Cells {
		if err := checkCell(context.Background(), spec, good, i); err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		for k, rec := range flipBits(good.Cells[i]) {
			bad := good
			bad.Cells = append([]jobd.CellRecord(nil), good.Cells...)
			bad.Cells[i] = rec
			if checkCell(context.Background(), spec, bad, i) == nil {
				t.Errorf("cell %d corruption %d accepted", i, k)
			}
		}
	}
}

func TestCheckFig3RejectsCorruptSpectra(t *testing.T) {
	cfg := experiments.Fig3Config{Seed: 5, Devices: 3, Samples: 1 << 12, Window: 1e-3}
	res, err := experiments.Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(f float64) float64 { return math.Float64frombits(math.Float64bits(f) ^ 1) }
	// Aggregates: every one is recomputed from the rows.
	for _, tech := range []experiments.Fig3TechResult{res.Old, res.New} {
		if err := checkFig3Aggregates(tech); err != nil {
			t.Fatalf("%s: %v", tech.Tech, err)
		}
		for k, mut := range []func(t *experiments.Fig3TechResult){
			func(t *experiments.Fig3TechResult) { t.Devices[0].Traps ^= 1 },
			func(t *experiments.Fig3TechResult) { t.MeanTraps = flip(t.MeanTraps) },
			func(t *experiments.Fig3TechResult) { t.MeanResidual = flip(t.MeanResidual) },
			func(t *experiments.Fig3TechResult) { t.MaxResidual = flip(t.MaxResidual) },
			func(t *experiments.Fig3TechResult) { t.MeanSlope = flip(t.MeanSlope) },
			func(t *experiments.Fig3TechResult) { t.SlopeStd = flip(t.SlopeStd) },
		} {
			bad := tech
			bad.Devices = append([]experiments.Fig3Device(nil), tech.Devices...)
			mut(&bad)
			if checkFig3Aggregates(bad) == nil {
				t.Errorf("%s: aggregate corruption %d accepted", tech.Tech, k)
			}
		}
	}
	// Rows: a shorter recomputed panel reproduces the leading rows, and
	// a flipped bit in any of them is caught.
	cfg.Devices = 2
	ref, err := experiments.Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFig3Rows(res, ref, 2); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 2; d++ {
		for k, mut := range []func(d *experiments.Fig3Device){
			func(d *experiments.Fig3Device) { d.Slope = flip(d.Slope) },
			func(d *experiments.Fig3Device) { d.Residual = flip(d.Residual) },
			func(d *experiments.Fig3Device) { d.Simulated ^= 1 },
		} {
			bad := *res
			bad.New.Devices = append([]experiments.Fig3Device(nil), res.New.Devices...)
			mut(&bad.New.Devices[d])
			if checkFig3Rows(&bad, ref, 2) == nil {
				t.Errorf("row %d corruption %d accepted", d, k)
			}
		}
	}
}
