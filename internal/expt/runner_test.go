package expt

import (
	"fmt"
	"strings"
	"testing"
)

// smallParams keeps engine tests fast while still exercising several cells
// per experiment.
func smallParams() Params {
	return Params{
		Sizes:     []int{32, 64},
		JoinSizes: []int{32, 64},
		Queries:   64,
		NNSize:    32,
		StretchN:  48,
		BalanceN:  48,

		ScalePoints:  600,
		ScaleNodes:   32,
		ScaleEpochs:  2,
		ScaleQueries: 32,

		RepairN:       48,
		RepairKills:   8,
		RepairQueries: 32,

		HotspotN:       48,
		HotspotObjects: 16,
		HotspotQueries: 128,

		FaceoffN:       48,
		FaceoffObjects: 12,
		FaceoffEpochs:  2,
		FaceoffQueries: 64,

		PlanetNodes:   200,
		PlanetObjects: 400,
		PlanetEpochs:  2,
		PlanetQueries: 32,

		NinesN:       48,
		NinesObjects: 12,
		NinesEpochs:  2,
		NinesQueries: 64,

		ChaosN:        48,
		ChaosObjects:  12,
		ChaosQueries:  64,
		ChaosStampede: 6,
		// One scenario keeps the suite's slowest experiment fast here; the
		// chaos tests cover the full named set.
		ChaosScenarios: []string{"blackout"},
	}
}

// TestRunnerDeterministicAcrossWorkers is the engine's core contract: the
// same seed yields a byte-identical table whether cells run serially or fan
// out across 8 workers.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	p := smallParams()
	for _, e := range Experiments() {
		if e.ID == "E10" {
			// E10 performs genuinely simultaneous joins; its printed
			// values (sizes and violation counts, all zero when Theorem 6
			// holds) are stable, but the mesh it leaves behind is not, so
			// it is exercised by TestRunnerRace instead.
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			def := e.Make(p)
			serial := def.Run(42, 1).String()
			parallel := def.Run(42, 8).String()
			if serial != parallel {
				t.Errorf("%s: workers=1 and workers=8 disagree\n--- serial ---\n%s--- parallel ---\n%s",
					e.ID, serial, parallel)
			}
		})
	}
}

// TestRunnerRace drives concurrent cells over the shared registry so the
// -race build can catch cross-cell sharing. It includes the experiments
// excluded from the determinism check.
func TestRunnerRace(t *testing.T) {
	if testing.Short() {
		t.Skip("race sweep is slow")
	}
	p := smallParams()
	r := Runner{Seed: 7, Workers: 8, Params: p}
	results, err := r.RunMatching("E0|E6|E7|E9|E10|E-scale|A3")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("got %d results", len(results))
	}
	for _, res := range results {
		if len(res.Table.Rows) == 0 {
			t.Errorf("%s produced no rows", res.ID)
		}
	}
}

// TestCellSeedsDistinct asserts the satellite fix: no two (experiment, cell)
// pairs may share an RNG stream — the failure mode of the old seed+7/seed*3
// arithmetic.
func TestCellSeedsDistinct(t *testing.T) {
	p := QuickParams()
	for _, base := range []int64{0, 1, 3, 7, 21} { // seeds where old offsets aliased
		seen := map[int64]string{}
		for _, e := range Experiments() {
			def := e.Make(p)
			for i := range def.Cells {
				s := def.cellSeed(base, i)
				where := e.ID + "/" + def.Cells[i].Label
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed %d: cell stream collision between %s and %s", base, where, prev)
				}
				seen[s] = where
			}
		}
	}
}

// TestStreamOrderAndPooling checks that the shared pool emits results in
// presentation order with content identical to per-experiment runs.
func TestStreamOrderAndPooling(t *testing.T) {
	p := smallParams()
	r := Runner{Seed: 11, Workers: 8, Params: p}
	var streamed []Result
	err := r.Stream("E0|E2|E6|A3", func(res Result) error {
		streamed = append(streamed, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"E0", "E2", "E6", "A3"}
	if len(streamed) != len(wantIDs) {
		t.Fatalf("streamed %d results, want %d", len(streamed), len(wantIDs))
	}
	for i, res := range streamed {
		if res.ID != wantIDs[i] {
			t.Fatalf("result %d is %s, want %s (presentation order)", i, res.ID, wantIDs[i])
		}
	}
	// Pooled output must equal an isolated serial run of the same def.
	for _, res := range streamed {
		for _, e := range Experiments() {
			if e.ID != res.ID {
				continue
			}
			if want := e.Make(p).Run(11, 1).String(); res.Table.String() != want {
				t.Errorf("%s: pooled table diverged from serial run\n%s\nvs\n%s", res.ID, res.Table, want)
			}
		}
	}
}

// TestRunPanicAttribution pins the unified failure path: a panicking cell
// surfaces the same experiment/cell-labelled message at any worker count.
func TestRunPanicAttribution(t *testing.T) {
	def := Def{
		Name:  "Boom",
		Table: Table{Title: "boom", Header: []string{"x"}},
		Cells: []Cell{
			{Label: "ok", Run: func(seed int64, t *Table) { t.AddRow(1) }},
			{Label: "bad", Run: func(int64, *Table) { panic("kapow") }},
		},
	}
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "Boom") || !strings.Contains(msg, "bad") || !strings.Contains(msg, "kapow") {
					t.Errorf("workers=%d: panic lacks attribution: %q", workers, msg)
				}
			}()
			def.Run(3, workers)
		}()
	}
}

// TestRunAndEmitRejectsFormatUpFront pins the cheap-failure path: a typo'd
// format errors out immediately — even with an invalid pattern, the format
// check comes first, proving no experiment selection (let alone execution)
// happened before it.
func TestRunAndEmitRejectsFormatUpFront(t *testing.T) {
	r := Runner{Seed: 1, Workers: 1, Params: QuickParams()}
	err := r.RunAndEmit(&strings.Builder{}, "(", "jsn")
	if err == nil || !strings.Contains(err.Error(), "jsn") {
		t.Fatalf("want unknown-format error before pattern handling, got %v", err)
	}
	// Valid format + good pattern still works end to end.
	var b strings.Builder
	if err := r.RunAndEmit(&b, "E0", FormatJSON); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\"id\": \"E0\"") {
		t.Errorf("json output missing result: %s", b.String())
	}
}

func TestMatch(t *testing.T) {
	all, err := Match("")
	if err != nil || len(all) != len(registry) {
		t.Fatalf("empty pattern: %d experiments, err=%v", len(all), err)
	}
	one, err := Match("e5")
	if err != nil || len(one) != 1 || one[0].ID != "E5" {
		t.Fatalf("case-insensitive id match failed: %v err=%v", one, err)
	}
	byName, err := Match("Table1.*")
	if err != nil || len(byName) != 4 {
		t.Fatalf("name regexp matched %d, want 4 (err=%v)", len(byName), err)
	}
	// E1 must not swallow E10..E16: the pattern is anchored.
	e1, err := Match("E1")
	if err != nil || len(e1) != 1 {
		t.Fatalf("anchored match failed: %v err=%v", e1, err)
	}
	if _, err := Match("NoSuchExperiment"); err == nil {
		t.Fatal("expected error for unmatched pattern")
	}
	if _, err := Match("("); err == nil {
		t.Fatal("expected error for invalid regexp")
	}
}

func TestRegistryNamesUniqueAndStable(t *testing.T) {
	ids := map[string]bool{}
	names := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] || names[e.Name] {
			t.Fatalf("duplicate registry entry %s/%s", e.ID, e.Name)
		}
		ids[e.ID] = true
		names[e.Name] = true
		def := e.Make(QuickParams())
		if def.Name != e.Name {
			t.Errorf("%s: def name %q != registry name %q (seed streams would drift)", e.ID, def.Name, e.Name)
		}
		if len(def.Cells) == 0 {
			t.Errorf("%s has no cells", e.ID)
		}
		if len(def.Table.Rows) != 0 {
			t.Errorf("%s skeleton already has rows", e.ID)
		}
		if !strings.Contains(def.Table.Title, "") && def.Table.Title == "" {
			t.Errorf("%s has no title", e.ID)
		}
	}
}
