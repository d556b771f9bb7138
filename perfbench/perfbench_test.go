package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
)

// Tiny versions of the four workloads: small meshes, but enough locates in
// every window or batch that each reported percentile keeps ten samples
// beyond it.

func tinyZipf() locateSpec {
	s := zipfSpec()
	s.mesh.space = transitStub(400)
	s.mesh.nodes, s.mesh.objects = 64, 256
	s.draws, s.checkN, s.epochs = 4096, 500, 1
	return s
}

func tinyTCP() locateSpec {
	s := tcpSpec()
	s.mesh.space = transitStub(400)
	s.mesh.nodes, s.mesh.objects = 48, 256
	s.draws, s.checkN, s.epochs = 4096, 300, 1
	return s
}

func tinyChurn() churnSpec {
	s := churnSpecFor(1)
	s.mesh.space = transitStub(400)
	s.mesh.nodes, s.mesh.objects, s.mesh.reserve = 64, 32, 100
	s.crashes, s.locates = 1, 1000
	return s
}

func tinyPlanet() planetSpec {
	s := planetSpecFor(1)
	s.mesh.space = uniformCloud(400)
	s.mesh.nodes, s.mesh.objects, s.mesh.reserve = 300, 300, 100
	s.queries, s.batches, s.batch, s.tailEps = 300, 2, 1000, 1
	return s
}

func tinyRuns() map[string]func(o options) (*report, *tracer, error) {
	return map[string]func(o options) (*report, *tracer, error){
		"locate-zipf":    func(o options) (*report, *tracer, error) { return runLocateWorkload(tinyZipf(), o) },
		"locate-tcp":     func(o options) (*report, *tracer, error) { return runLocateWorkload(tinyTCP(), o) },
		"churn-publish":  func(o options) (*report, *tracer, error) { return runChurnWorkload(tinyChurn(), o) },
		"planet-virtual": func(o options) (*report, *tracer, error) { return runPlanetWorkload(tinyPlanet(), o) },
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for name, run := range tinyRuns() {
		for _, traced := range []bool{false, true} {
			r, tr, err := run(options{seed: 7, seconds: 1, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: problems %v, failed %d of %d", name, traced, r.problems, r.failed, r.attempted)
			}
			defs, vals := endToEnd, r.e2e
			if traced {
				defs, vals = perLayer, r.layer
				if tr == nil {
					t.Errorf("%s: traced run returned no tracer", name)
				}
			}
			for _, d := range defs {
				v, ok := vals[d.name]
				switch {
				case !ok || math.IsNaN(v) || math.IsInf(v, 0):
					t.Errorf("%s trace=%v: %s not measured (%v)", name, traced, d.name, v)
				case !traced && v <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, v)
				}
			}
		}
	}
}

// servers maps every object to the sorted IDs of the live nodes serving it.
func servers(m *core.Mesh) map[ids.ID][]string {
	out := map[ids.ID][]string{}
	for _, n := range m.Nodes() {
		for _, g := range n.PublishedObjects() {
			out[g] = append(out[g], n.ID().String())
		}
	}
	for _, s := range out {
		sort.Strings(s)
	}
	return out
}

// TestTimedSpaceNeutral checks that the traced run's metric decorator
// changes nothing: on a seeded serial run with region-diverse replica
// placement, the wrapped and bare meshes charge identical Cost totals and
// place every replica on the same nodes.
func TestTimedSpaceNeutral(t *testing.T) {
	s := tinyChurn()
	bare, err := buildFixture(s.mesh, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := buildFixture(s.mesh, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if metric.Regions(wrapped.timed) == nil || len(metric.Regions(wrapped.timed)) != len(metric.Regions(wrapped.timed.inner)) {
		t.Fatal("decorator does not forward the transit-stub region labels")
	}
	bm, bh, bd := bare.pubCost.Snapshot()
	wm, wh, wd := wrapped.pubCost.Snapshot()
	if bm != wm || bh != wh || bd != wd {
		t.Errorf("set-up publish cost differs: bare %d/%d/%v, wrapped %d/%d/%v", bm, bh, bd, wm, wh, wd)
	}
	if bare.placed != wrapped.placed {
		t.Errorf("replicas placed: bare %d, wrapped %d", bare.placed, wrapped.placed)
	}
	wrapped.timed.timing.Store(true)
	br, err := s.run(bare, 3, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := s.run(wrapped, 3, newTracer(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range compareCounts("wrapped vs bare", br.counts(), wr.counts()) {
		t.Error(p)
	}
	bs, ws := servers(bare.mesh), servers(wrapped.mesh)
	if len(bs) != len(ws) {
		t.Fatalf("objects served: bare %d, wrapped %d", len(bs), len(ws))
	}
	for g, b := range bs {
		w := ws[g]
		if len(b) != len(w) {
			t.Errorf("object %v: replicas on %v (bare) vs %v (wrapped)", g, b, w)
			continue
		}
		for i := range b {
			if b[i] != w[i] {
				t.Errorf("object %v: replicas on %v (bare) vs %v (wrapped)", g, b, w)
				break
			}
		}
	}
	if wrapped.timed.calls.Load() == 0 {
		t.Error("decorator timed no Distance calls")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false},
		{20, 0.5, true}, {10, 0.5, false}, {0, 0.5, false},
	}
	for _, c := range cases {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	var s samples
	for i := 1; i <= 999; i++ {
		s.add(float64(i))
	}
	if _, err := s.quantile(0.99); err == nil {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	s.add(1000)
	if v, err := s.quantile(0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", v, err)
	}
	if v, err := s.quantile(0.5); err != nil || v != 500 {
		t.Errorf("p50 of 1..1000 = %v, %v; want 500", v, err)
	}
	var few samples
	few.add(3)
	if v, err := few.quantile(0.5); err != nil || v != 3 {
		t.Errorf("median of one sample = %v, %v", v, err)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
