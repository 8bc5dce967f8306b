package experiments

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"testing"

	"samurai"
	"samurai/internal/device"
	"samurai/internal/dram"
	"samurai/internal/rng"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// digestValue folds every float (as math.Float64bits), integer, bool
// and string reachable from v into h, in a fixed traversal order (map
// keys sorted by their formatted value). Paths are reached through
// their exported Times/Filled slices like any other struct.
func digestValue(h hash.Hash64, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		for i := range buf {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			digestValue(h, v.Elem())
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				digestValue(h, v.Field(i))
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			return fmt.Sprint(keys[i].Interface()) < fmt.Sprint(keys[j].Interface())
		})
		for _, k := range keys {
			digestValue(h, k)
			digestValue(h, v.MapIndex(k))
		}
	}
}

func digest(vals ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		digestValue(h, reflect.ValueOf(v))
	}
	return h.Sum64()
}

// TestKernelGoldens pins the bits of every experiment that draws trap
// paths through Algorithm 1: an FNV-64 digest over every float result
// (and every Path.Times) of a small configuration of each. The digests
// were captured before the uniformisation call sites moved onto the
// compiled kernel; any accept decision that changes anywhere changes
// its row.
func TestKernelGoldens(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		run  func() (any, error)
	}{
		{"fig3", 0xb3b585def8d83685, func() (any, error) {
			return Fig3(Fig3Config{Seed: 5, Devices: 3, Samples: 1 << 14, Window: 1e-3})
		}},
		{"fig7", 0x3455fce03478713e, func() (any, error) {
			return Fig7(SweepVgs, Fig7Config{Seed: 2, Samples: 1 << 14, SweepN: 3, Curves: true})
		}},
		{"fig8", 0x5351f7124e7dc69e, func() (any, error) { return Fig8(Fig8Config{Seed: 1, OccupancyEnsemble: 2}) }},
		{"fig9", 0x152b81be4a9e41a9, func() (any, error) { return F9(F9Config{Seed: 1, Reads: 3}) }},
		{"x3", 0x37e15029b8d6b6ab, func() (any, error) { return X3(X3Config{Seed: 1}) }},
		{"x4", 0x61c086b4643a7c22, func() (any, error) { return X4(X4Config{Seed: 1, Horizon: 6e-9}) }},
		{"x5-vrt", 0xc860b46e38d6d5ae, func() (any, error) {
			cell := dram.DefaultCellConfig()
			ctx := trap.DefaultContext(cell.Tox, 0)
			return dram.SimulateVRT(cell, trap.Trap{Y: 0.8 * cell.Tox, E: 0}, ctx, 200, rng.New(3))
		}},
		{"x6", 0xae8460e979f64c0f, func() (any, error) { return X6(X6Config{Seed: 2}) }},
		{"x7", 0xdb352869c5da9fa3, func() (any, error) { return X7(X7Config{Seed: 1, Seeds: 1, Reads: 4}) }},
		{"t1", 0xcf67e4e2511bc354, func() (any, error) {
			res, err := T1(T1Config{Seed: 1, Paths: 300})
			if err != nil {
				return nil, err
			}
			for i := range res.Rows { // wall times are not part of the result's bits
				res.Rows[i].BaselineNs, res.Rows[i].UniformNs = 0, 0
			}
			return res, nil
		}},
		{"t2", 0xc6f04d556f4ced2d, func() (any, error) { return T2(T2Config{Seed: 1}) }},
		{"generate-trace", 0x21eabf2e392487e7, func() (any, error) {
			tech := device.Node("32nm")
			dev := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
			ctx := tech.TrapContext(tech.Vdd)
			profile := tech.TrapProfiler().SampleN(8, ctx, rng.New(4))
			vgs, err := waveform.New([]float64{0, 2e-5, 3e-5, 1e-4}, []float64{0, tech.Vdd, tech.Vdd, 0.2})
			if err != nil {
				return nil, err
			}
			tr, paths, err := samurai.GenerateTrace(profile, dev, vgs, waveform.Constant(50e-6), 0, 1e-4, 512, 9)
			return []any{tr, paths}, err
		}},
		{"run-naive", 0xd8ef79e86175d9ad, func() (any, error) {
			res, err := samurai.Run(samurai.Config{Seed: 3})
			if err != nil {
				return nil, err
			}
			return []any{res.Paths, res.LogLR}, nil
		}},
		{"run-tilted", 0xc3e2f900d766c1a9, func() (any, error) {
			res, err := samurai.Run(samurai.Config{Seed: 3, TiltEV: -0.05})
			if err != nil {
				return nil, err
			}
			return []any{res.Paths, res.LogLR}, nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(res); got != c.want {
				t.Errorf("digest %#016x, want %#016x", got, c.want)
			}
		})
	}
}
