// Package microbench is the hot-path micro-benchmark set behind `benchtables
// -bench-json` (locate, slot search, next-hop decision, maintenance epochs,
// wire codec): the perf trajectory is emitted as JSON, committed as
// BENCH_micro.json, and gated by CI against regressions. BenchmarkMicro runs
// the same set under `go test -bench`.
//
// Timing is testing.Benchmark's: each body runs b.N iterations against a
// fixture built before the timer starts, and the reported ns/op is the
// minimum over Options.Count repetitions (the least-noise estimator for a
// gate). The target time per repetition is the test.benchtime flag, which a
// CLI registers with testing.Init and sets with flag.Set. Allocation counts
// are testing.B's; with a single benchmarking goroutine they are exact,
// which is what makes "any allocs/op increase fails CI" enforceable.
package microbench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"testing"
)

// Benchmark is one named entry of the micro set. Setup builds the fixture
// (untimed) and returns the body to be timed; the body is re-invoked with
// growing b.N, so it must be repeatable against the same fixture.
type Benchmark struct {
	Name  string
	Setup func() func(b *testing.B)
}

// Result is one benchmark's measurement, serialized into BENCH_micro.json.
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Options configure a harness run.
type Options struct {
	Count   int       // repetitions; min ns/op wins (default 3)
	Verbose io.Writer // per-benchmark progress lines, nil for quiet
}

// Run executes every benchmark and returns results in definition order. A
// body that fails (b.Fatal, b.Skip) measures zero iterations; Run reports it
// as an error instead of emitting an empty row.
func Run(benches []Benchmark, opts Options) ([]Result, error) {
	if opts.Count <= 0 {
		opts.Count = 3
	}
	results := make([]Result, 0, len(benches))
	for _, bm := range benches {
		body := bm.Setup()
		var res Result
		for rep := 0; rep < opts.Count; rep++ {
			r := testing.Benchmark(body)
			if r.N == 0 {
				return nil, fmt.Errorf("microbench: %s failed: no iterations measured", bm.Name)
			}
			n := float64(r.N)
			if ns := float64(r.T.Nanoseconds()) / n; rep == 0 || ns < res.NsPerOp {
				res = Result{
					Name:        bm.Name,
					NsPerOp:     ns,
					AllocsPerOp: float64(r.MemAllocs) / n,
					BytesPerOp:  float64(r.MemBytes) / n,
					Iterations:  r.N,
					Metrics:     r.Extra,
				}
			}
		}
		if opts.Verbose != nil {
			fmt.Fprintf(opts.Verbose, "%-24s %12.0f ns/op %8.0f allocs/op %10.0f B/op\n",
				res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
		}
		results = append(results, res)
	}
	return results, nil
}

// WriteJSON emits results as indented JSON (the BENCH_micro.json format:
// a JSON array of Result objects, stable order, no timestamps so reruns on
// identical code diff cleanly).
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// ReadJSON parses a BENCH_micro.json previously written by WriteJSON.
func ReadJSON(r io.Reader) ([]Result, error) {
	var out []Result
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("microbench: parse baseline: %w", err)
	}
	return out, nil
}

// Compare gates current results against a baseline: a benchmark fails when
// its ns/op regresses by more than tol (fraction, e.g. 0.25) or its
// allocs/op increases beyond a hair of slack (+5% and +0.5 absolute —
// allocation counts are near-deterministic, but pooled scratch refills
// after a GC add a fractional, run-dependent remainder; the slack absorbs
// that while still catching any real per-op allocation added to a hot
// path). New benchmarks absent from the baseline pass (adding one must not
// require a two-step baseline dance); baseline entries that vanish fail, so
// a gate cannot be deleted silently. Returns human-readable violations;
// empty means the gate passes.
func Compare(baseline, current []Result, tol float64) []string {
	base := map[string]Result{}
	for _, r := range baseline {
		base[r.Name] = r
	}
	var violations []string
	seen := map[string]bool{}
	for _, cur := range current {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			continue // new benchmark: becomes part of the next baseline
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+tol) {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op %.0f -> %.0f (+%.0f%%, tolerance %.0f%%)",
				cur.Name, b.NsPerOp, cur.NsPerOp,
				100*(cur.NsPerOp/b.NsPerOp-1), 100*tol))
		}
		if cur.AllocsPerOp > b.AllocsPerOp*1.05+0.5 {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op %.1f -> %.1f (allowance is +5%% and +0.5)",
				cur.Name, b.AllocsPerOp, cur.AllocsPerOp))
		}
	}
	for name := range base {
		if !seen[name] {
			violations = append(violations, fmt.Sprintf(
				"%s: present in baseline but not measured (renamed or deleted? refresh the baseline)", name))
		}
	}
	sort.Strings(violations)
	return violations
}
