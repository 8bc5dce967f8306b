package main

import (
	"context"
	"hash/fnv"
	"math"
	"testing"
)

// TestConstantModeGolden pins the bits of constant-bias generation:
// an FNV-64 digest over the trace samples and every path's Times.
func TestConstantModeGolden(t *testing.T) {
	trace, paths, err := generate(context.Background(), genConfig{
		tech: "32nm", wMult: 2, vgs: -1, id: 50e-6, duration: 1e-4,
		samples: 1024, seed: 3, sqLo: -1, sqHi: -1, period: 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(xs []float64) {
		var buf [8]byte
		for _, x := range xs {
			u := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	put(trace.T)
	put(trace.I)
	for _, p := range paths {
		put(p.Times)
	}
	const want = 0x8d6a282f39412f9d
	if got := h.Sum64(); got != want {
		t.Errorf("digest %#016x, want %#016x", got, uint64(want))
	}
}

// TestSquareWaveMatchesDefinition checks the square-mode bias against
// the square wave's definition — hi on the first half of every period,
// lo on the second — at instants away from the edges. A waveform with
// one breakpoint per half period interpolates between the levels and
// reads (hi+lo)/2 at the quarter-period points this samples.
func TestSquareWaveMatchesDefinition(t *testing.T) {
	const lo, hi, p, dur = 0.1, 0.9, 1e-6, 2e-5
	w := biasWave(genConfig{sqLo: lo, sqHi: hi, period: p, duration: dur}, 1.0)
	square := func(t float64) float64 {
		if int(t/(p/2))%2 == 0 {
			return hi
		}
		return lo
	}
	for k := 0; k < int(dur/(p/2)); k++ {
		for _, f := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
			tt := (float64(k) + f) * p / 2
			if got, want := w.Eval(tt), square(tt); got != want {
				t.Fatalf("bias(%g) = %g, want %g", tt, got, want)
			}
		}
	}
}
