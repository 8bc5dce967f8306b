package samurai_test

import (
	"runtime"
	"testing"
	"time"

	"samurai/internal/circuit"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/sram"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

func benchCoreUniformise(b *testing.B) {
	b.ReportAllocs()
	tech := device.Node("90nm")
	ctx := tech.TrapContext(tech.Vdd)
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
	ls := ctx.RateSum(tr)
	horizon := 1e4 / ls
	r := rng.New(1)
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		p, _, err := markov.Reference(ctx, tr, waveform.Constant(tech.Vdd).Eval, 0, horizon, 0, r.Split(uint64(i)), nil)
		if err != nil {
			b.Fatal(err)
		}
		events += p.Transitions()
	}
	b.ReportMetric(float64(events)/float64(b.N), "transitions/op")
}

// benchBatchUniformise runs the compiled kernel on n lanes of the
// BenchmarkCoreUniformise workload (same trap, same constant bias, same
// 10⁴-candidate horizon per lane) and reports the per-trap-path cost.
// The literal reference kernel runs inside the same op with the timer stopped,
// so the reported speedup-x is a same-run, same-thermal-state ratio —
// comparing ns/op across two separately-timed benchmarks is ±15% on a
// frequency-scaling host, which would make the ≥5x gate meaningless.
func benchBatchUniformise(b *testing.B, n int) {
	b.ReportAllocs()
	tech := device.Node("90nm")
	ctx := tech.TrapContext(tech.Vdd)
	tr := trap.Trap{Y: 0.45 * ctx.Tox, E: 0}
	ls := ctx.RateSum(tr)
	horizon := 1e4 / ls
	bias := waveform.Constant(tech.Vdd)
	traps := make([]trap.Trap, n)
	for i := range traps {
		traps[i] = tr
	}
	bs := markov.NewBatchState()
	r := rng.New(1)
	b.ResetTimer()
	events := 0
	var seqNs int64
	for i := 0; i < b.N; i++ {
		paths, _, err := bs.Run(ctx, traps, bias, 0, horizon, 0, r.Split(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range paths {
			events += p.Transitions()
		}
		b.StopTimer()
		// Flush collector debt between the two kernels' windows so
		// neither pays assists for the other's garbage: the comparison
		// is per-candidate compute, and both kernels allocate the same
		// per-path storage anyway.
		runtime.GC()
		parent := r.Split(uint64(i))
		start := time.Now()
		for k := 0; k < n; k++ {
			p, _, err := markov.Reference(ctx, tr, waveform.Constant(tech.Vdd).Eval, 0, horizon, 0, parent.Split(uint64(k)), nil)
			if err != nil {
				b.Fatal(err)
			}
			events -= p.Transitions()
		}
		seqNs += time.Since(start).Nanoseconds()
		runtime.GC()
		b.StartTimer()
	}
	if events != 0 {
		b.Fatal("batch and sequential kernels disagree on transition counts")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/trap-path")
	b.ReportMetric(float64(seqNs)/float64(b.Elapsed().Nanoseconds()), "speedup-x")
}

// benchArrayTransient runs a hold-state transient on an n×n shared-line
// SRAM array through the automatically selected sparse MNA backend. It
// reports per-step cost and the frozen pattern's nonzero count — the
// acceptance criterion is that ns/step tracks nnz (which grows with
// cell count), not unknowns² as the dense path would.
func benchArrayTransient(b *testing.B, n int) {
	b.ReportAllocs()
	tech := device.Node("90nm")
	wl := make([]*waveform.PWL, n)
	bl := make([]*waveform.PWL, n)
	blb := make([]*waveform.PWL, n)
	arr, err := sram.BuildArray(sram.ArrayConfig{Rows: n, Cols: n, Cell: sram.CellConfig{Tech: tech}}, wl, bl, blb)
	if err != nil {
		b.Fatal(err)
	}
	ic := arr.InitialConditions(func(r, c int) int { return (r + c) % 2 })
	const steps = 10
	const dt = 2e-11
	nnz := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := arr.Circuit.NewRunner(circuit.TransientSpec{
			T0: 0, T1: steps * dt, Dt: dt,
			UIC: true, InitialV: ic,
		})
		if err != nil {
			b.Fatal(err)
		}
		for !r.Done() {
			if err := r.Step(dt); err != nil {
				b.Fatal(err)
			}
		}
		nnz = r.MatrixNNZ()
	}
	b.ReportMetric(float64(nnz), "nnz")
	b.ReportMetric(float64(arr.Circuit.Size()), "unknowns")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

func benchCellTransient(b *testing.B) {
	b.ReportAllocs()
	tech := device.Node("90nm")
	p := sram.Fig8Pattern(tech.Vdd)
	wl, bl, blb, err := p.Waveforms()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell, err := sram.Build(sram.CellConfig{Tech: tech}, wl, bl, blb)
		if err != nil {
			b.Fatal(err)
		}
		run, err := cell.Evaluate(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		if run.NumError != 0 {
			b.Fatal("clean transient failed")
		}
	}
}
