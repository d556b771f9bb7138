package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics a user of the overlay sees; every workload
// reports every one of them, from its untraced run. Beside set-up time and
// memory they are the paper's own costs (messages, stretch, maintenance
// traffic), which repeat exactly for a seed; the wall-clock timings are
// printed as infoMetrics (see README.md for why they are not gated).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"msgs_per_locate", "count", "lower"},
	{"locate_stretch", "ratio", "lower"},
	{"maint_msgs_per_epoch", "count", "lower"},
}

// perLayer are the traced run's figures, one group per layer of the locate
// path and of maintenance (see README.md for what each should move).
var perLayer = []metricDef{
	{"metric.distance.calls_per_locate", "count", "lower"},
	{"metric.distance.ns", "ns", "lower"},
	{"metric.distance.contention", "ratio", "lower"},
	{"metric.distance.share", "ratio", "lower"},
	{"metric.rowcache.hit_ratio", "ratio", "higher"},
	{"metric.rowcache.misses", "count", "lower"},
	{"metric.rowcache.evictions", "count", "lower"},
	{"netsim.send.ns", "ns", "lower"},
	{"netsim.msgs", "count", "lower"},
	{"netsim.engine.events", "count", "lower"},
	{"netsim.engine.noop_event_ns", "ns", "lower"},
	{"netsim.engine.queued", "count", "lower"},
	{"netsim.engine.max_wait", "vtime", "lower"},
	{"route.next_hop.ns", "ns", "lower"},
	{"route.hops_per_locate", "count", "lower"},
	{"route.links_per_node", "count", "lower"},
	{"route.holes", "count", "lower"},
	{"core.transport.invoke_ns", "ns", "lower"},
	{"core.transport.invokes_per_locate", "count", "lower"},
	{"core.transport.share", "ratio", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.bytes_per_locate", "bytes", "lower"},
	{"wire.share", "ratio", "lower"},
	{"core.locate.self_share", "ratio", "lower"},
	{"core.locate.found_ratio", "ratio", "higher"},
	{"core.publish.msgs_per_op", "count", "lower"},
	{"core.replicate.placed_per_op", "count", "higher"},
	{"core.nearest.slot_ns", "ns", "lower"},
	{"core.join.msgs_per_op", "count", "lower"},
	{"core.maintain.sweep_ms", "ms", "lower"},
	{"core.maintain.sweep_msgs", "count", "lower"},
	{"core.maintain.links_removed", "count", "lower"},
	{"core.maintain.dead_probe_ratio", "ratio", "lower"},
	{"core.maintain.republish_ms", "ms", "lower"},
	{"core.maintain.republish_msgs", "count", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

// infoMetrics are printed on the workloads they apply to but are not in
// the JSON result and carry no bound: wall-clock timings do not repeat
// closely enough from run to run on a shared host, a fail ratio that is
// zero cannot take a relative bound, and the virtual-time figures exist
// only on planet-virtual (see README.md).
var infoMetrics = map[string]string{
	"serial_locate_p50_us":    "us",
	"locate_fail_ratio":       "ratio",
	"publish_p50_ms":          "ms",
	"publish_p99_ms":          "ms",
	"join_p50_ms":             "ms",
	"join_p90_ms":             "ms",
	"maint_epoch_ms":          "ms",
	"sim_events_per_s":        "1/s",
	"sim_locates_per_s":       "1/s",
	"locate_per_s":            "1/s",
	"locate_p50_us":           "us",
	"locate_p99_us":           "us",
	"locate_vlat_p99":         "vtime",
	"batch_locate_fail_ratio": "ratio",
	"unavailable":             "count",
}

// report is what one workload run produces.
type report struct {
	e2e   map[string]float64
	n     map[string]int // samples behind each timing
	layer map[string]float64
	info  map[string]float64

	attempted, failed int64
	problems          []string

	// traced marks the report of a traced run, which prints the per-layer
	// metrics only; its end-to-end timings rest on a single run's samples
	// and are not held to the percentile rule.
	traced bool
}

func newReport() *report {
	return &report{
		e2e:   map[string]float64{},
		n:     map[string]int{},
		layer: map[string]float64{},
		info:  map[string]float64{},
	}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// infoTiming records the q-quantile of s as a printed, ungated figure when
// the sample supports it under the reporting rule.
func (r *report) infoTiming(name string, s *samples, q float64) {
	if v, err := s.quantile(q); err == nil {
		r.info[name] = v
		r.n[name] = s.n()
	}
}

// compareCounts reports every count on which a and b differ.
func compareCounts(what string, a, b map[string]float64) []string {
	var out []string
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		if !oka || !okb || math.Float64bits(va) != math.Float64bits(vb) {
			out = append(out, fmt.Sprintf("%s: count %s differs: %v vs %v", what, k, va, vb))
		}
	}
	return out
}

// gated returns the metric list the run reports in its JSON result, and
// their values: end-to-end for an untraced run, per-layer for a traced one.
func (r *report) gated() ([]metricDef, map[string]float64) {
	if r.traced {
		return perLayer, r.layer
	}
	return endToEnd, r.e2e
}

// writeHuman prints the run's figures, one per line, with units and the
// sample count behind every timing.
func (r *report) writeHuman(w io.Writer) {
	defs, vals := r.gated()
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-36s missing\n", d.name)
			continue
		}
		if n := r.n[d.name]; n > 0 && !r.traced {
			fmt.Fprintf(w, "  %-36s %14.6g %-6s (n=%d)\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	names := make([]string, 0, len(r.info))
	for k := range r.info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := ""
		if r.n[k] > 0 {
			n = fmt.Sprintf(" (n=%d)", r.n[k])
		}
		fmt.Fprintf(w, "  %-36s %14.6g %s%s, not gated\n", k, r.info[k], infoMetrics[k], n)
	}
}

// writeJSON prints the single result line the contract asks for.
func (r *report) writeJSON(w io.Writer) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := r.gated()
	metrics := map[string]mv{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		metrics[d.name] = mv{v, d.unit}
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
