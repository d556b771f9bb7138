package microbench

import (
	"flag"
	"strings"
	"testing"
)

// BenchmarkMicro runs the BENCH_micro.json set under go test, one
// sub-benchmark per row:
//
//	go test -run '^$' -bench BenchmarkMicro/OpLocate ./internal/microbench/
//
// Each fixture is built once, on the sub-benchmark's first round, outside
// the timed region.
func BenchmarkMicro(b *testing.B) {
	for _, bm := range Benches() {
		var body func(*testing.B)
		b.Run(bm.Name, func(b *testing.B) {
			if body == nil {
				body = bm.Setup()
				b.ResetTimer()
			}
			b.ReportAllocs()
			body(b)
		})
	}
}

func row(name string, ns, allocs float64) Result {
	return Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestCompare(t *testing.T) {
	base := []Result{row("A", 1000, 4), row("B", 100, 100)}
	cases := []struct {
		name    string
		current []Result
		want    []string // one substring per expected violation, sorted
	}{
		{"identical", []Result{row("A", 1000, 4), row("B", 100, 100)}, nil},
		{"ns just inside tolerance", []Result{row("A", 1249, 4), row("B", 125, 100)}, nil},
		{"ns just outside tolerance", []Result{row("A", 1251, 4), row("B", 100, 100)},
			[]string{"A: ns/op 1000 -> 1251"}},
		{"faster is fine", []Result{row("A", 10, 4), row("B", 1, 100)}, nil},
		// Allowance is +5% and +0.5: 4 -> 4.7 and 100 -> 105.5 at the limit.
		{"allocs at allowance", []Result{row("A", 1000, 4.7), row("B", 100, 105.5)}, nil},
		{"allocs past allowance", []Result{row("A", 1000, 4.71), row("B", 100, 105.6)},
			[]string{"A: allocs/op 4.0 -> 4.7", "B: allocs/op 100.0 -> 105.6"}},
		{"new row passes", []Result{row("A", 1000, 4), row("B", 100, 100), row("C", 1e9, 1e9)}, nil},
		{"vanished row fails", []Result{row("A", 1000, 4)},
			[]string{"B: present in baseline but not measured"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Compare(base, tc.current, 0.25)
			if len(got) != len(tc.want) {
				t.Fatalf("violations = %q, want %d matching %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("violation %d = %q, want prefix %q", i, got[i], w)
				}
			}
		})
	}
}

// TestRunReportsFailedBody pins the zero-N path: a body that calls b.Fatal
// measures no iterations, and Run must surface that as an error naming the
// benchmark rather than emit a row of zeros the gate would compare.
func TestRunReportsFailedBody(t *testing.T) {
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", old) })

	ok := Benchmark{Name: "Ok", Setup: func() func(*testing.B) {
		return func(b *testing.B) { b.ReportMetric(7, "things/op") }
	}}
	broken := Benchmark{Name: "Broken", Setup: func() func(*testing.B) {
		return func(b *testing.B) { b.Fatal("lost object") }
	}}

	res, err := Run([]Benchmark{ok}, Options{Count: 2})
	if err != nil {
		t.Fatalf("healthy body: %v", err)
	}
	if len(res) != 1 || res[0].Name != "Ok" || res[0].Iterations != 1 || res[0].Metrics["things/op"] != 7 {
		t.Fatalf("healthy body: got %+v", res)
	}

	res, err = Run([]Benchmark{ok, broken}, Options{Count: 2})
	if err == nil || !strings.Contains(err.Error(), "Broken") {
		t.Fatalf("failed body: err = %v, results = %+v; want an error naming Broken", err, res)
	}
	if res != nil {
		t.Fatalf("failed body: got rows %+v alongside the error", res)
	}
}
