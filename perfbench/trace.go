package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps spans in memory for one traced run and writes them out
// when the run ends. Spans are recorded by the benchmark around its
// calls into each layer's public functions; nothing is traced inside
// the program. A nil *tracer records nothing, so untraced rounds run
// the same code.
//
// A span's self time is its duration minus the durations of its child
// spans. Most children are nested calls; a "replay" child is the same
// inputs pushed through a lower layer's entry point on its own (for
// example the scalar kernel a Sort call dispatches to), which measures
// the part of the parent that layer accounts for.
type tracer struct {
	t0    time.Time
	spans []span
}

type span struct {
	ID     int     `json:"id"`
	Trace  int64   `json:"trace"` // shared by the spans of one job, request or slab
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e3
}

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(trace int64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Trace: trace, Parent: parent, Name: name,
		Start: t.us(start), End: t.us(end),
	})
	return len(t.spans) - 1
}

// timed runs f, records it as a span and returns the span id and f's
// duration. The duration is returned on a nil tracer too.
func (t *tracer) timed(trace int64, parent int, name string, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	end := time.Now()
	return t.add(trace, parent, name, start, end), end.Sub(start)
}

// setEnd closes a span opened with add before its children ran.
func (t *tracer) setEnd(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.us(end)
}

// selfTimes sums each span name's self time in microseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// total sums the durations (µs) of the spans with the given name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

// count is the number of spans with the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcile derives the two whole-run checks every workload reports:
// the share of the traced end-to-end wall that no layer's self time
// covers, and how much slower a traced round ran than an untraced
// round of the same work. attributed and the walls are in µs.
func reconcile(layers map[string]float64, attributed, tracedWall float64, tracedRounds int, untracedWall float64, untracedRounds int) {
	if tracedWall > 0 {
		layers["unattributed_frac"] = 1 - attributed/tracedWall
	}
	if tracedRounds > 0 && untracedRounds > 0 && untracedWall > 0 {
		layers["trace_overhead_frac"] = (tracedWall/float64(tracedRounds))/(untracedWall/float64(untracedRounds)) - 1
	}
}

// reconcileTolerance is the largest unattributed_frac each workload
// may show; BENCHMARK.json states the same numbers. The daemon's is
// wider because the loopback round trip runs outside every layer's
// clock.
var reconcileTolerance = map[string]float64{"sortlib": 0.05, "lab": 0.05, "daemon": 0.35}

// layerMetrics are printed by every workload with --trace 1; a layer
// a workload bypasses reads 0 there. Each comment names the
// end-to-end figure the layer should move.
var layerMetrics = []struct{ name, unit string }{
	// sortlib → scalar_rows_per_s
	{"sortkernels.scalar.ns_per_row", "ns"},
	{"shufflenet.sort.dispatch_ns_per_row", "ns"},
	{"shufflenet.sortfunc.ns_per_row", "ns"},
	{"slices.fallback.time_share", "frac"},
	// sortlib → batch_rows_per_s
	{"sortkernels.batch.kernel_ns_per_row", "ns"},
	{"sortbatch.transpose_ns_per_row", "ns"},
	{"sortkernels.batch_go.kernel_ns_per_row", "ns"},
	{"sortlib.rows.kernel", "count"},
	{"sortlib.rows.fallback", "count"},
	{"sortlib.rows.nan", "count"},
	{"sortlib.rows.func", "count"},
	{"sortkernels.batch_simd", "bool"},
	// lab and daemon → check_s / halver_s
	{"network.compile.ms", "ms"},
	{"network.bitbatch.ns_per_word", "ns"},
	{"sortcheck.zeroone.ms", "ms"},
	{"sortcheck.zeroone.masks", "count"},
	{"sortcheck.zeroone.early_exits", "count"},
	{"par.efficiency", "frac"},
	{"halver.epsilon.ms", "ms"},
	{"halver.epsilon.masks", "count"},
	// lab and daemon → certify_s / the /v1/adversary chain
	{"network.parse.us", "us"},
	{"delta.decompose.ms", "ms"},
	{"core.theorem41.ms", "ms"},
	{"core.lemma41.collisions", "count"},
	{"core.certificate.ms", "ms"},
	{"core.verify.ms", "ms"},
	{"serve.encode.us", "us"},
	// lab and daemon → optimum_s
	{"core.optimal.ms", "ms"},
	{"core.optimal.nodes", "count"},
	{"core.optimal.nodes_per_s", "1/s"},
	{"core.optimal.memo.hit_ratio", "frac"},
	{"core.optimal.memo.evictions", "count"},
	{"core.optimal.dominance.cuts", "count"},
	// daemon → lat_p50_ms_low, lat_p90_ms_high, goodput_rps_high
	{"serve.overhead_ms", "ms"},
	{"serve.cache.hit_ratio", "frac"},
	{"serve.check.probe.lanes_per_word", "count"},
	{"serve.throttled", "count"},
	{"serve.deadline_exceeded", "count"},
	{"daemon.check.p90_ms", "ms"},
	{"daemon.probe.p90_ms", "ms"},
	{"daemon.halver.p90_ms", "ms"},
	{"daemon.adversary.p90_ms", "ms"},
	{"daemon.optimal.p90_ms", "ms"},
	{"loadgen.lag_p90_ms", "ms"},
	// every workload
	{"unattributed_frac", "frac"},
	{"trace_overhead_frac", "frac"},
}
