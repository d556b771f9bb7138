// Command perfbench is the repository benchmark: it builds a Tapestry mesh
// from --seed, drives one named workload against internal/core for about
// --seconds, checks every answer, and prints its metrics. The last line of
// standard output is one JSON object; see README.md for every metric.
//
//	perfbench --workload locate-zipf --seed 1 --seconds 10 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: locate-zipf, locate-tcp, churn-publish or planet-virtual")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "how long the run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateFlags(*seconds, *trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", w.name, o.seed, o.seconds, *trace)
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s %s/%s; TCP traffic crosses the host loopback interface (127.0.0.1), not a real link\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "why: %s\n", w.why)

	r, tr, err := w.run(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs, vals := r.gated()
	for _, d := range defs {
		if _, ok := vals[d.name]; !ok {
			r.problem("metric %s was not measured", d.name)
		}
	}
	if tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.name, o.seed))
		kept, dropped, err := tr.write(path)
		if err != nil {
			r.problem("write spans: %v", err)
		} else {
			fmt.Fprintf(stdout, "spans: %d written to %s (%d more counted, not kept)\n", kept, path, dropped)
		}
	}
	r.writeHuman(stdout)
	for _, p := range r.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	if err := r.writeJSON(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(r.problems) > 0 || r.failed > 0 {
		return 1
	}
	return 0
}

func validateFlags(seconds, trace int) error {
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	return nil
}
