// Command benchtables regenerates every table and figure of the paper's
// evaluation at configurable scale, fanning experiment cells across a worker
// pool. Output is byte-identical for any -workers value: each cell draws its
// RNG streams from a seed derived from (seed, experiment, cell index), and
// rows merge in cell order. README's "Reproducing the paper's tables"
// section lists every experiment and flag.
//
// Usage:
//
//	benchtables                              # full suite, one worker per core
//	benchtables -quick                       # reduced sizes for a fast smoke run
//	benchtables -run E5                      # one experiment by id
//	benchtables -run 'Table1.*|E6'           # any subset by id/name regexp
//	benchtables -run Stretch.* -workers 8 -format json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"tapestry"

	"tapestry/internal/expt"
	"tapestry/internal/microbench"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sizes for a fast run")
	run := flag.String("run", "", "run experiments matching this id/name regexp (e.g. E5, E-scale, Table1.*)")
	seed := flag.Int64("seed", 1, "base RNG seed; per-cell streams are derived from it")
	workers := flag.Int("workers", 0, "experiment cells run in parallel (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "output format: table | json | csv")
	scalePoints := flag.Int("scale-points", 0, "E-scale: metric-space points of the full churn cell (0 = params default)")
	scaleNodes := flag.Int("scale-nodes", 0, "E-scale: initial overlay population (0 = params default)")
	hotspotN := flag.Int("hotspot-n", 0, "E-hotspot: mesh size of the full cell (0 = params default)")
	hotspotQueries := flag.Int("hotspot-queries", 0, "E-hotspot: Zipf queries of the full cell (0 = params default)")
	planetNodes := flag.Int("planet-nodes", 0, "E-planet: overlay population of the virtual-time run (0 = params default)")
	planetObjects := flag.Int("planet-objects", 0, "E-planet: published objects (0 = params default)")
	ninesN := flag.Int("nines-n", 0, "E-nines: overlay population of the availability sweep (0 = params default)")
	ninesQueries := flag.Int("nines-queries", 0, "E-nines: Zipf queries per epoch (0 = params default)")
	chaosN := flag.Int("chaos-n", 0, "E-chaos: overlay population of the scenario suite (0 = params default)")
	chaosScenario := flag.String("chaos-scenario", "", "E-chaos: comma-separated named scenarios to replay (empty = whole suite)")
	protocol := flag.String("protocol", "", "E-faceoff/E-chaos: comma-separated overlay protocols (empty = all registered)")
	benchJSON := flag.Bool("bench-json", false, "run the hot-path micro-benchmark set and emit BENCH_micro.json to stdout")
	benchBaseline := flag.String("bench-baseline", "", "with -bench-json: gate against this baseline BENCH_micro.json, exit 1 on regression")
	benchTolerance := flag.Float64("bench-tolerance", 0.25, "with -bench-baseline: allowed ns/op regression fraction (allocs/op tolerates none)")
	benchTime := flag.Duration("bench-time", 200*time.Millisecond, "with -bench-json: target time per benchmark repetition")
	benchCount := flag.Int("bench-count", 3, "with -bench-json: repetitions per benchmark; the minimum ns/op is reported")
	transport := flag.String("transport", "", "message transport backend: direct | loopback | tcp (default: $TAPESTRY_TRANSPORT, then direct)")
	flag.Parse()

	if *transport != "" {
		if _, err := tapestry.ParseTransport(*transport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Setenv("TAPESTRY_TRANSPORT", *transport)
	}

	if *benchJSON {
		runMicro(*benchBaseline, *benchTolerance, *benchTime, *benchCount)
		return
	}

	params := expt.DefaultParams()
	if *quick {
		params = expt.QuickParams()
	}
	if *scalePoints > 0 {
		params.ScalePoints = *scalePoints
	}
	if *scaleNodes > 0 {
		params.ScaleNodes = *scaleNodes
	}
	if *hotspotN > 0 {
		params.HotspotN = *hotspotN
	}
	if *hotspotQueries > 0 {
		params.HotspotQueries = *hotspotQueries
	}
	if *planetNodes > 0 {
		params.PlanetNodes = *planetNodes
	}
	if *planetObjects > 0 {
		params.PlanetObjects = *planetObjects
	}
	if *ninesN > 0 {
		params.NinesN = *ninesN
	}
	if *ninesQueries > 0 {
		params.NinesQueries = *ninesQueries
	}
	if *chaosN > 0 {
		params.ChaosN = *chaosN
	}
	if *chaosScenario != "" {
		params.ChaosScenarios = strings.Split(*chaosScenario, ",")
		if err := expt.ValidateScenarios(params.ChaosScenarios); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(2)
		}
	}
	// The sampled static build parallelises under the same worker budget as
	// the cell pool; its output is byte-identical for every value.
	params.PlanetBuildWorkers = *workers
	if *protocol != "" {
		selected := strings.Split(*protocol, ",")
		if err := expt.ValidateProtocols(selected); err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(2)
		}
		params.FaceoffProtocols = selected
		params.ChaosProtocols = selected
	}

	r := expt.Runner{Seed: *seed, Workers: *workers, Params: params}
	if err := r.RunAndEmit(os.Stdout, *run, *format); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
}

// runMicro executes the micro-benchmark set, writes BENCH_micro.json to
// stdout, and — when a baseline is given — exits 1 if any benchmark
// regresses past the tolerance gate. A benchmark body that fails exits 2
// before anything is written.
func runMicro(baselinePath string, tolerance float64, benchTime time.Duration, count int) {
	// testing.Benchmark reads its target time from the test.benchtime flag.
	testing.Init()
	if err := flag.Set("test.benchtime", benchTime.String()); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables: -bench-time:", err)
		os.Exit(2)
	}
	results, err := microbench.Run(microbench.Benches(), microbench.Options{
		Count:   count,
		Verbose: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	if err := microbench.WriteJSON(os.Stdout, results); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	if baselinePath == "" {
		return
	}
	f, err := os.Open(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	baseline, err := microbench.ReadJSON(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	if violations := microbench.Compare(baseline, results, tolerance); len(violations) > 0 {
		fmt.Fprintln(os.Stderr, "benchtables: benchmark regression gate FAILED:")
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  "+v)
		}
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "benchtables: benchmark gate passed vs", baselinePath)
}
