package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"samurai/internal/obs"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. LAYERS.md gives each one's source and the end-to-end metric it
// should move. A layer that does not run on a workload reports 0.
var perLayer = []struct{ name, unit string }{
	// Self time per operation, in thread-seconds: from the program's
	// span tree on the service workloads, from the sampled profile
	// (share × operation wall) on spectra.
	{"circuit.self_s", "s"},
	{"markov.self_s", "s"},
	{"traps.self_s", "s"},
	{"rtn.self_s", "s"},
	{"samurai.self_s", "s"},
	{"montecarlo.self_s", "s"},
	// Program counters, per operation.
	{"circuit.steps", "count"},
	{"circuit.steps_rejected", "count"},
	{"circuit.newton_iters", "count"},
	{"circuit.newton_iters_per_step", "ratio"},
	{"markov.candidates", "count"},
	{"markov.accept_ratio", "ratio"},
	{"rtn.samples", "count"},
	// Sampled CPU profile, folded by package.
	{"analysis.cpu_share", "ratio"},
	{"cpu_share.circuit", "ratio"},
	{"cpu_share.markov", "ratio"},
	{"cpu_share.rtn", "ratio"},
	{"cpu_share.sim_other", "ratio"},
	{"cpu_share.service", "ratio"},
	{"cpu_share.json", "ratio"},
	{"cpu_share.gc", "ratio"},
	{"cpu_share.bench", "ratio"},
	{"cpu_share.other", "ratio"},
	{"profile.samples", "count"},
	// Cell runner.
	{"montecarlo.cell_s_p50", "s"},
	{"montecarlo.cell_s_tail", "s"},
	{"montecarlo.cell_s_tail_pct", "%"},
	{"montecarlo.cells_timed", "count"},
	{"montecarlo.busy_frac", "ratio"},
	// Fabric lease protocol.
	{"fabric.worker_idle_frac", "ratio"},
	{"fabric.leases", "count"},
	{"fabric.cells_per_batch", "count"},
	{"fabric.lease_rtt_s", "s"},
	{"fabric.checkpoint_rtt_s", "s"},
	{"fabric.http_s.lease", "s"},
	{"fabric.http_s.checkpoint", "s"},
	{"fabric.steals", "count"},
	{"fabric.post_retries", "count"},
	// Job service.
	{"jobd.http_s.submit", "s"},
	{"jobd.http_s.status", "s"},
	{"jobd.http_s.result", "s"},
	{"jobd.http_s.events", "s"},
	{"jobd.queue_wait_s", "s"},
	{"jobd.wal_records_per_job", "count"},
	{"jobd.wal_bytes_per_cell", "B"},
	{"jobd.replay_s", "s"},
	{"jobd.jobs_per_s", "1/s"},
	{"jobd.job_latency_tail_s", "s"},
	{"jobd.job_latency_tail_pct", "%"},
	// Rare-event estimator.
	{"rareevent.ess_per_cell", "ratio"},
	{"rareevent.ess_per_s", "1/s"},
	// Go runtime.
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	// Attribution bookkeeping.
	{"unattributed.frac", "ratio"},
	{"trace.untraced_wall_s", "s"},
	{"trace.traced_wall_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"trace.ops", "count"},
}

// unitOf returns the unit of a per-layer metric.
func unitOf(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}

// set records a per-layer metric by name.
func set(m map[string]metric, name string, v float64) {
	m[name] = metric{v, unitOf(name)}
}

// ratio returns a/b, or 0 when b is 0 (a layer absent on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSnap is the slice of runtime/metrics a traced run diffs.
type runtimeSnap struct{ gcCPU, totalCPU, gcCycles float64 }

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSnap{num(s[0].Value), num(s[1].Value), num(s[2].Value)}
}

// counterSnapshot sums the process registry's series by name.
func counterSnapshot() map[string]float64 {
	var b bytes.Buffer
	if err := obs.Default().WritePrometheus(&b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading counters:", err)
	}
	return parseProm(b.String())
}

// tracedRun brackets the traced window: a CPU profile, the program's
// counters and the runtime's GC accounting, each read before and after.
type tracedRun struct {
	prof          bytes.Buffer
	profErr       error
	before, after map[string]float64
	rt0, rt1      runtimeSnap
}

func startTracedRun() *tracedRun {
	t := &tracedRun{before: counterSnapshot(), rt0: readRuntime()}
	t.profErr = pprof.StartCPUProfile(&t.prof)
	return t
}

func (t *tracedRun) stop() {
	if t.profErr == nil {
		pprof.StopCPUProfile()
	}
	t.after = counterSnapshot()
	t.rt1 = readRuntime()
}

// finish assembles every per-layer metric from the two windows: the
// untraced one gives the reference wall time for the overhead, the
// traced one everything else.
func (t *tracedRun) finish(ctx context.Context, lt layerTracer, plain, traced *phase, m map[string]metric) {
	for _, l := range perLayer {
		m[l.name] = metric{0, l.unit}
	}
	ops := float64(len(traced.ops))
	untracedWall, tracedWall := median(plain.walls).Seconds(), median(traced.walls).Seconds()
	set(m, "trace.ops", ops)
	set(m, "trace.untraced_wall_s", untracedWall)
	set(m, "trace.traced_wall_s", tracedWall)
	set(m, "trace.overhead_frac", tracedWall/untracedWall-1)

	d := counterDelta(t.before, t.after)
	steps := d["samurai_circuit_steps_accepted_total"] + d["samurai_circuit_steps_rejected_total"]
	set(m, "circuit.steps", steps/ops)
	set(m, "circuit.steps_rejected", d["samurai_circuit_steps_rejected_total"]/ops)
	set(m, "circuit.newton_iters", d["samurai_circuit_newton_iterations_total"]/ops)
	set(m, "circuit.newton_iters_per_step", ratio(d["samurai_circuit_newton_iterations_total"], steps))
	set(m, "markov.candidates", d["samurai_markov_candidates_total"]/ops)
	set(m, "markov.accept_ratio", ratio(d["samurai_markov_accepts_total"], d["samurai_markov_candidates_total"]))
	set(m, "rtn.samples", d["samurai_rtn_trace_samples_total"]/ops)
	set(m, "fabric.steals", d["samurai_fabric_steals_total"])
	set(m, "fabric.post_retries", d["samurai_fabricw_post_retries_total"])
	set(m, "fabric.leases", d["samurai_fabricw_leases_total"]/ops)

	gcCPU, totalCPU := t.rt1.gcCPU-t.rt0.gcCPU, t.rt1.totalCPU-t.rt0.totalCPU
	set(m, "runtime.gc_cpu_frac", ratio(gcCPU, totalCPU))
	set(m, "runtime.gc_cycles", (t.rt1.gcCycles-t.rt0.gcCycles)/ops)

	if t.profErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: CPU profile unavailable:", t.profErr)
	} else if samples, err := parseCPUProfile(t.prof.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else {
		shares, n := foldProfile(samples)
		set(m, "profile.samples", float64(n))
		set(m, "analysis.cpu_share", shares["analysis"])
		for _, l := range profileLayers {
			if l != "analysis" {
				set(m, "cpu_share."+l, shares[l])
			}
		}
	}
	if lt != nil {
		lt.Finish(ctx, traced.ops, traced.walls, m)
	}
}

// addSelfTimes records span-derived self time per operation and the
// unattributed share: the part of the operations' wall time outside
// the simulation tree and outside the measured service pieces.
func addSelfTimes(m map[string]metric, self map[string]time.Duration, ops int, simWall, serviceWall, opWall time.Duration) {
	n := float64(ops)
	for _, layer := range []string{"circuit", "markov", "traps", "rtn", "samurai", "montecarlo"} {
		set(m, layer+".self_s", self[layer].Seconds()/n)
	}
	set(m, "unattributed.frac", ratio((opWall-simWall-serviceWall).Seconds(), opWall.Seconds()))
}

// addCellTimes records the cell-duration percentiles by the tail rule.
func addCellTimes(m map[string]metric, cells []float64) {
	set(m, "montecarlo.cells_timed", float64(len(cells)))
	set(m, "montecarlo.cell_s_p50", median(cells))
	if pct, v, ok := tail(cells); ok {
		set(m, "montecarlo.cell_s_tail", v)
		set(m, "montecarlo.cell_s_tail_pct", pct)
	}
}
