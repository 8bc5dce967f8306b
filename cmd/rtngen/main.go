// Command rtngen generates a non-stationary RTN current trace for a
// single MOSFET using Algorithm 1 (Markov uniformisation) and Eq (3),
// and writes it as CSV (time_s, i_rtn_A, n_filled).
//
// The gate bias can be constant (-vgs) or a square wave (-square-lo,
// -square-hi, -period) to exercise genuinely non-stationary statistics.
//
// Example:
//
//	rtngen -tech 32nm -duration 1e-4 -square-lo 0 -square-hi 0.9 -period 1e-6 > trace.csv
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/waveform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtngen: ")

	var (
		techName = flag.String("tech", "32nm", "technology node")
		wMult    = flag.Float64("w", 2, "channel width in units of Lmin")
		vgs      = flag.Float64("vgs", -1, "constant gate bias, V (default: nominal Vdd)")
		id       = flag.Float64("id", 50e-6, "drain current for Eq (3) amplitude, A")
		duration = flag.Float64("duration", 1e-4, "trace duration, s")
		samples  = flag.Int("samples", 4096, "output samples")
		seed     = flag.Uint64("seed", 1, "random seed")
		nTraps   = flag.Int("traps", 0, "trap count (0 = sample from the statistical profiler)")
		sqLo     = flag.Float64("square-lo", -1, "square-wave low bias, V (enables square mode with -square-hi)")
		sqHi     = flag.Float64("square-hi", -1, "square-wave high bias, V")
		period   = flag.Float64("period", 1e-6, "square-wave period, s")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. :9090)")
		progress    = flag.Bool("progress", false, "stream structured progress events to stderr")
	)
	flag.Parse()
	if *progress {
		obs.SetSink(obs.NewTextSink(os.Stderr))
	}
	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		//lint:ignore bareerr rtngen exits right after generation; the metrics listener close has nothing to recover
		defer srv.Close()
		log.Printf("metrics at http://%s/metrics", srv.Addr())
	}

	tr, paths, err := generate(context.Background(), genConfig{
		tech: *techName, wMult: *wMult, vgs: *vgs, id: *id, duration: *duration,
		samples: *samples, seed: *seed, traps: *nTraps,
		sqLo: *sqLo, sqHi: *sqHi, period: *period,
	})
	if err != nil {
		log.Fatal(err)
	}
	times, counts := rtn.NFilled(paths)

	transitions := 0
	for _, p := range paths {
		transitions += p.Transitions()
	}
	log.Printf("%d trap transitions; trace max %.3g A, mean %.3g A",
		transitions, tr.MaxAbs(), tr.Mean())

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(w, "time_s,i_rtn_A,n_filled")
	for i := range tr.T {
		fmt.Fprintf(w, "%.9e,%.9e,%d\n", tr.T[i], tr.I[i], rtn.CountAt(times, counts, tr.T[i]))
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}

// genConfig carries the command-line parameters of one generation.
type genConfig struct {
	tech                     string
	wMult, vgs, id, duration float64
	samples                  int
	seed                     uint64
	traps                    int
	sqLo, sqHi, period       float64
}

// biasWave returns the gate bias: a square wave that is hi for the
// first half of every period in square mode, else the constant -vgs
// (nominal vdd when unset).
func biasWave(c genConfig, vdd float64) *waveform.PWL {
	switch {
	case c.sqLo >= 0 && c.sqHi >= 0:
		return waveform.Square(c.sqLo, c.sqHi, c.period, 0.5, c.duration)
	case c.vgs < 0:
		return waveform.Constant(vdd)
	}
	return waveform.Constant(c.vgs)
}

// generate samples the device's trap profile, simulates every trap
// under the configured gate bias and composes the Eq (3) trace.
func generate(ctx context.Context, c genConfig) (*rtn.Trace, []*markov.Path, error) {
	tech := device.Node(c.tech)
	dev := device.NewMOS(tech, device.NMOS, c.wMult*tech.Lmin, tech.Lmin)
	tctx := tech.TrapContext(tech.Vdd)
	root := rng.New(c.seed)

	profiler := tech.TrapProfiler()
	profile := profiler.Sample(dev.W, dev.L, tctx, root.Split(1))
	if c.traps > 0 {
		profile = profiler.SampleN(c.traps, tctx, root.Split(1))
	}
	log.Printf("device %s W=%.0fnm L=%.0fnm, %d traps", c.tech, dev.W*1e9, dev.L*1e9, len(profile.Traps))

	// One bias waveform feeds both Algorithm 1 and Eq (3).
	vgsWave := biasWave(c, tech.Vdd)
	ctx, span := trace.Start(ctx, "rtngen")
	defer span.End()
	_, uni := trace.Start(ctx, "uniformise")
	paths, _, err := markov.NewBatchState().Run(profile.Ctx, profile.Traps, vgsWave, 0, c.duration, 0, root.Split(2))
	uni.End()
	if err != nil {
		return nil, nil, err
	}
	_, comp := trace.Start(ctx, "compose")
	tr, err := rtn.Compose(paths, dev, vgsWave, waveform.Constant(c.id), 0, c.duration, c.samples)
	comp.End()
	if err != nil {
		return nil, nil, err
	}
	return tr, paths, nil
}
