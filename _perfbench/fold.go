package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one completed span of a program trace.
type span struct {
	ID, Parent uint64
	Path       string
	Start, Dur time.Duration
}

// spanLayer maps the last element of a span path to its layer. Spans
// the program emits: samurai.run → clean/traps/rtn → transistor →
// circuit.transient / markov.uniformise, under montecarlo.run_array →
// cell for array sweeps.
func spanLayer(path string) string {
	name := path[strings.LastIndex(path, "/")+1:]
	switch name {
	case "circuit.transient":
		return "circuit"
	case "markov.uniformise":
		return "markov"
	case "traps", "transistor":
		return "traps"
	case "rtn":
		return "rtn"
	case "cell", "montecarlo.run_array":
		return "montecarlo"
	}
	return "samurai"
}

// selfTimes folds a span tree into self time per layer: a span's self
// time is its duration minus the part of its interval that its
// children cover. Children of one parent may overlap (parallel
// workers), so the covered part is the length of the union of their
// intervals, clipped to the parent. Spans whose parent is absent are
// roots; wall is the length of the union of the root intervals.
func selfTimes(spans []span) (self map[string]time.Duration, wall time.Duration) {
	byID := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	children := map[uint64][]interval{}
	var roots []interval
	for _, s := range spans {
		iv := interval{s.Start, s.Start + s.Dur}
		if byID[s.Parent] && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], iv)
		} else {
			roots = append(roots, iv)
		}
	}
	self = map[string]time.Duration{}
	for _, s := range spans {
		covered := unionLength(children[s.ID], interval{s.Start, s.Start + s.Dur})
		self[spanLayer(s.Path)] += s.Dur - covered
	}
	return self, unionLength(roots, interval{math.MinInt64, math.MaxInt64})
}

// extent returns the time from the earliest span start to the latest
// span end (0 for none): on the fabric, one job's simulation span from
// its first cell to its last, gaps between cells included.
func extent(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	lo, hi := spans[0].Start, spans[0].Start+spans[0].Dur
	for _, s := range spans[1:] {
		lo, hi = min(lo, s.Start), max(hi, s.Start+s.Dur)
	}
	return hi - lo
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi time.Duration }

// unionLength returns the length of the union of ivs clipped to clip.
func unionLength(ivs []interval, clip interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, clip.lo), min(iv.hi, clip.hi)
		if hi > lo {
			s = append(s, interval{lo, hi})
		}
	}
	sort.Slice(s, func(a, b int) bool { return s[a].lo < s[b].lo })
	var total time.Duration
	var cur interval
	for k, iv := range s {
		switch {
		case k == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(s) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// parseTraceJSONL decodes the program's trace export (one header line,
// then one span per line; see trace.Tracer.WriteJSONL).
func parseTraceJSONL(r io.Reader) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 0; sc.Scan(); line++ {
		if line == 0 {
			continue // trace header
		}
		var rec struct {
			SpanID   string `json:"span_id"`
			ParentID string `json:"parent_id"`
			Path     string `json:"path"`
			StartNS  int64  `json:"start_ns"`
			DurNS    int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line+1, err)
		}
		id, err := strconv.ParseUint(rec.SpanID, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: span id: %w", line+1, err)
		}
		parent, err := strconv.ParseUint(rec.ParentID, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: parent id: %w", line+1, err)
		}
		out = append(out, span{ID: id, Parent: parent, Path: rec.Path,
			Start: time.Duration(rec.StartNS), Dur: time.Duration(rec.DurNS)})
	}
	return out, sc.Err()
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail applies the reporting rule for tail timings: the highest
// candidate percentile with at least ten samples beyond it. It returns
// the percentile and its value; ok is false when even the median has
// fewer than ten samples above it.
func tail(samples []float64) (pct, value float64, ok bool) {
	n := float64(len(samples))
	for _, p := range tailPercentiles {
		if n*(100-p) >= 1000-1e-6 { // n·(1−p/100) ≥ 10, robust to rounding
			return p, percentile(samples, p), true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// parseProm sums a Prometheus text exposition by metric name: every
// label set of one name (and each of a histogram's _sum, _count and
// _bucket series) folds into one total.
func parseProm(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			name = name[:br]
		}
		out[name] += v
	}
	return out
}

// counterDelta returns after − before for every name in after.
func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// frame is one (possibly inlined) stack frame of a CPU sample.
type frame struct{ fn, file string }

// cpuSample is one pprof sample: its stack, leaf first, and CPU time.
type cpuSample struct {
	stack []frame
	nanos int64
}

// parseCPUProfile decodes the gzipped protobuf that runtime/pprof
// writes, keeping only what the package fold needs: each sample's
// stack (inlined frames expanded, leaf first) and its CPU nanoseconds.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type line struct{ fn uint64 }
	type function struct{ name, file int64 }
	var (
		strs        []string
		sampleTypes [][2]int64 // (type, unit) string indexes
		rawSamples  []struct {
			locs   []uint64
			values []int64
		}
		locs  = map[uint64][]line{}
		funcs = map[uint64]function{}
	)
	err = pbFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			if err := pbFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s struct {
				locs   []uint64
				values []int64
			}
			if err := pbFields(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, pb)
				case 2:
					for _, x := range appendVarints(nil, w, v, pb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			rawSamples = append(rawSamples, s)
		case 4: // location
			var id uint64
			var lines []line
			if err := pbFields(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					var l line
					if err := pbFields(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							l.fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, l)
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = lines
		case 5: // function
			var id uint64
			var f function
			if err := pbFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// The CPU profile's values are (samples/count, cpu/nanoseconds).
	valueIdx := len(sampleTypes) - 1
	for k, st := range sampleTypes {
		if str(st[1]) == "nanoseconds" {
			valueIdx = k
		}
	}
	out := make([]cpuSample, 0, len(rawSamples))
	for _, rs := range rawSamples {
		if valueIdx < 0 || valueIdx >= len(rs.values) {
			continue
		}
		cs := cpuSample{nanos: rs.values[valueIdx]}
		for _, loc := range rs.locs {
			for _, l := range locs[loc] {
				f := funcs[l.fn]
				cs.stack = append(cs.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// pbFields walks the fields of one protobuf message, calling fn with
// the field number, wire type and either the varint value or the
// length-delimited payload. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			payload := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// uvarint decodes a protobuf varint; n <= 0 reports malformed input.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// isGCFrame reports whether a frame is the collector's own work:
// background and assisted marking, write barriers, sweeping and
// returning memory to the OS.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || strings.HasPrefix(fn, "runtime.(*pageAlloc).scav")
}

// pkgLayers maps a Go package to the layer its CPU time is charged to.
// The innermost frame of a sample whose package is listed wins, so a
// math.Exp called from the Markov kernel is markov time and a fsync
// called from the WAL is service time.
var pkgLayers = map[string]string{
	"samurai/internal/circuit":     "circuit",
	"samurai/internal/sram":        "circuit",
	"samurai/internal/markov":      "markov",
	"samurai/internal/trap":        "markov",
	"samurai/internal/rtn":         "rtn",
	"samurai/internal/analysis":    "analysis",
	"samurai/internal/montecarlo":  "sim_other",
	"samurai/internal/rareevent":   "sim_other",
	"samurai/internal/experiments": "sim_other",
	"samurai":                      "sim_other",
	"samurai/internal/jobd":        "service",
	"samurai/internal/fabric":      "service",
	"samurai/internal/obs":         "service",
	"samurai/internal/obs/trace":   "service",
	"net/http":                     "service",
	"net":                          "service",
	"internal/poll":                "service",
	"syscall":                      "service",
	"os":                           "service",
	"encoding/json":                "json",
	"main":                         "bench",
}

// helperLayers are utility packages every layer calls: their time is
// charged to the nearest named caller (the device model evaluated by
// the circuit solver is circuit time, by the Eq 3 composition rtn
// time), and to the listed layer only when no caller is named.
var helperLayers = map[string]string{
	"samurai/internal/device":   "circuit",
	"samurai/internal/rng":      "sim_other",
	"samurai/internal/waveform": "sim_other",
	"samurai/internal/units":    "sim_other",
}

// profileLayers is every layer foldProfile can return.
var profileLayers = []string{"circuit", "markov", "rtn", "analysis", "sim_other", "service", "json", "gc", "bench", "other"}

// frameLayer returns the layer of one frame, or "" when its package is
// not a named layer. The numerics package serves two layers: its FFT
// is the spectral-analysis path, its dense and sparse LU the circuit
// solver.
func frameLayer(f frame) string {
	pkg := funcPackage(f.fn)
	if pkg == "samurai/internal/num" {
		if strings.HasSuffix(f.file, "fft.go") || strings.HasSuffix(f.file, "stats.go") {
			return "analysis"
		}
		return "circuit"
	}
	return pkgLayers[pkg]
}

// sampleLayer charges one stack (leaf first) to a layer.
func sampleLayer(stack []frame) string {
	fallback := "other"
	for _, f := range stack {
		if isGCFrame(f.fn) {
			return "gc"
		}
	}
	for _, f := range stack {
		if l := frameLayer(f); l != "" {
			return l
		}
		if l, ok := helperLayers[funcPackage(f.fn)]; ok && fallback == "other" {
			fallback = l
		}
	}
	return fallback
}

// funcPackage extracts the import path from a qualified function name
// such as "samurai/internal/markov.(*BatchState).Run".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile charges every sample to a layer and returns the share of
// CPU time per layer (summing to 1) and the sample count.
func foldProfile(samples []cpuSample) (map[string]float64, int) {
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := sampleLayer(s.stack)
		shares[layer] += float64(s.nanos)
		total += float64(s.nanos)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, len(samples)
}
