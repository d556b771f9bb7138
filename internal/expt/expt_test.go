package expt

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell as float.
func cell(t *testing.T, tab Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %q has no cell (%d,%d):\n%s", tab.Title, row, col, tab)
	}
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, tab.Rows[row][col])
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := Table{Title: "T", Note: "n", Header: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 0.1239)
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "2.5", "0.124", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTable1HopsShape(t *testing.T) {
	tab := table1HopsDef([]int{32, 128}, 128).Run(1, 1)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows: %d", len(tab.Rows))
	}
	// Hops grow slowly for Tapestry (log n): less than double across 4x n.
	tap32, tap128 := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	if tap128 > 2.5*tap32+1 {
		t.Errorf("tapestry hops grew too fast: %g -> %g\n%s", tap32, tap128, tab)
	}
	// CAN grows faster than Tapestry between the sizes (√n vs log n) — by
	// n=128 CAN should need more hops than Tapestry.
	if cell(t, tab, 1, 5) < cell(t, tab, 1, 2) {
		t.Errorf("expected CAN to need more hops than Tapestry at n=128\n%s", tab)
	}
}

func TestTable1SpaceShape(t *testing.T) {
	tab := table1SpaceDef([]int{32, 128}).Run(2, 1)
	// Tapestry per-node state is far below n (it is Θ(log n)).
	if got := cell(t, tab, 1, 1); got > 128 {
		t.Errorf("tapestry space %g at n=128 is not logarithmic\n%s", got, tab)
	}
	// CAN space is dimension-bound: tiny and roughly constant.
	can32, can128 := cell(t, tab, 0, 5), cell(t, tab, 1, 5)
	if can128 > 3*can32 {
		t.Errorf("CAN space should be ~constant: %g -> %g", can32, can128)
	}
}

func TestTable1InsertCostShape(t *testing.T) {
	tab := table1InsertCostDef([]int{32, 128}).Run(3, 1)
	for row := 0; row < 2; row++ {
		n := cell(t, tab, row, 0)
		tap := cell(t, tab, row, 1)
		if tap <= 0 || tap > 40*n {
			t.Errorf("tapestry insert cost %g at n=%g out of plausible polylog range\n%s", tap, n, tab)
		}
	}
	// Sub-linear growth: 4x nodes should not cost 4x messages.
	if cell(t, tab, 1, 1) > 3*cell(t, tab, 0, 1) {
		t.Errorf("tapestry insert cost scaling looks linear:\n%s", tab)
	}
}

func TestTable1BalanceShape(t *testing.T) {
	tab := table1BalanceDef(64, 256).Run(4, 1)
	if len(tab.Rows) != 3 {
		t.Fatal("expected 3 rows")
	}
	if skew := cell(t, tab, 0, 2); skew > 30 {
		t.Errorf("pointer skew %g too high\n%s", skew, tab)
	}
	if tab.Rows[2][3] != "no (single point)" {
		t.Error("directory verdict missing")
	}
}

func TestStretchVsDistanceShape(t *testing.T) {
	tab := stretchVsDistanceDef(96, 48, 512).Run(5, 1)
	if len(tab.Rows) < 5 {
		t.Fatalf("too few populated deciles:\n%s", tab)
	}
	// In the nearest decile, Tapestry stretch must beat Chord's (the paper's
	// headline locality claim).
	tapNear := cell(t, tab, 0, 1)
	chordNear := cell(t, tab, 0, 2)
	if tapNear >= chordNear {
		t.Errorf("tapestry near-stretch %g not better than chord %g\n%s", tapNear, chordNear, tab)
	}
}

func TestSurrogateOverheadShape(t *testing.T) {
	tab := surrogateOverheadDef([]int{32, 128}, 128).Run(6, 1)
	for row := range tab.Rows {
		if extra := cell(t, tab, row, 3); extra > 3 {
			t.Errorf("mean surrogate overhead %g exceeds the <2 expectation\n%s", extra, tab)
		}
	}
}

func TestNNCorrectnessShape(t *testing.T) {
	tab := nnCorrectnessDef(48, []int{2, 48}).Run(7, 1)
	// Full k must be exact; tiny k is allowed violations but the table must
	// show improvement.
	small := cell(t, tab, 0, 1)
	full := cell(t, tab, 1, 1)
	if full != 0 {
		t.Errorf("full-k construction has %g P2 violations\n%s", full, tab)
	}
	if full > small {
		t.Errorf("violations should not increase with k\n%s", tab)
	}
	if p1 := cell(t, tab, 0, 4); p1 != 0 {
		t.Errorf("P1 violations even at small k: %g (watch-list/multicast must prevent these)\n%s", p1, tab)
	}
}

func TestMulticastShape(t *testing.T) {
	tab := multicastDef(64).Run(8, 1)
	// Messages per reached node stays O(1) — bound the ratio.
	for row := range tab.Rows {
		if ratio := cell(t, tab, row, 4); ratio > 8 {
			t.Errorf("multicast ratio %g too high\n%s", ratio, tab)
		}
	}
}

func TestAvailabilityDuringJoinShape(t *testing.T) {
	tab := availabilityDuringJoinDef(24, 12).Run(9, 1)
	if fails := cell(t, tab, 0, 3); fails != 0 {
		t.Errorf("availability failures during join: %g\n%s", fails, tab)
	}
}

func TestParallelJoinShape(t *testing.T) {
	tab := parallelJoinDef(12, 3, 6).Run(10, 1)
	for row := range tab.Rows {
		if v := cell(t, tab, row, 2); v != 0 {
			t.Errorf("P1 violations after parallel join wave %d: %g\n%s", row+1, v, tab)
		}
		if v := cell(t, tab, row, 3); v != 0 {
			t.Errorf("root divergences after wave %d: %g\n%s", row+1, v, tab)
		}
		if v := cell(t, tab, row, 4); v != 0 {
			t.Errorf("locate failures during in-flight joins of wave %d: %g (§4.3 availability)\n%s", row+1, v, tab)
		}
	}
}

func TestDeletionShape(t *testing.T) {
	tab := deletionDef(48).Run(11, 1)
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 phases:\n%s", tab)
	}
	// Baseline, voluntary and post-republish phases must be 100%.
	for _, row := range []int{0, 1, 3} {
		if !strings.Contains(tab.Rows[row][2], "100.00%") {
			t.Errorf("phase %q success %q, want 100%%\n%s", tab.Rows[row][0], tab.Rows[row][2], tab)
		}
	}
}

func TestOptimizePointersShape(t *testing.T) {
	tab := optimizePointersDef(32, 8).Run(12, 1)
	last := tab.Rows[len(tab.Rows)-1]
	if last[1] != "0" {
		t.Errorf("P4 violations after optimization: %s\n%s", last[1], tab)
	}
	for _, row := range tab.Rows {
		if !strings.Contains(row[2], "100.00%") {
			t.Errorf("locate success dropped in stage %q: %s", row[0], row[2])
		}
	}
}

func TestStubLocalityShape(t *testing.T) {
	tab := stubLocalityDef().Run(13, 1)
	if len(tab.Rows) != 2 {
		t.Fatal("expected 2 variants")
	}
	// The §6.3 variant keeps 100% of intra-stub queries local and its mean
	// latency must beat the plain variant by a wide margin.
	if !strings.Contains(tab.Rows[1][2], "(100%)") {
		t.Errorf("local-branch variant leaked queries: %s\n%s", tab.Rows[1][2], tab)
	}
	plain, local := cell(t, tab, 0, 3), cell(t, tab, 1, 3)
	if local >= plain {
		t.Errorf("local variant latency %g not better than plain %g\n%s", local, plain, tab)
	}
}

func TestGeneralMetricShape(t *testing.T) {
	tab := generalMetricDef([]int{64, 128}).Run(14, 1)
	for row := range tab.Rows {
		if got, budget := cell(t, tab, row, 3), cell(t, tab, row, 4); got > 3*budget {
			t.Errorf("max stretch %g above 3·log³n=%g\n%s", got, budget, tab)
		}
	}
}

func TestMultiRootShape(t *testing.T) {
	tab := multiRootDef(64, []int{1, 4}, 0.15).Run(15, 1)
	parse := func(row int) float64 {
		s := tab.Rows[row][3]
		open := strings.Index(s, "(")
		v, err := strconv.ParseFloat(strings.TrimSuffix(s[open+1:], "%)"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	if parse(1) < parse(0) {
		t.Errorf("more roots should not reduce availability:\n%s", tab)
	}
	if parse(1) < 95 {
		t.Errorf("4 roots under 15%% failures should stay near-perfect:\n%s", tab)
	}
}

func TestAblationsRun(t *testing.T) {
	if tab := ablationSurrogateDef(48).Run(16, 1); len(tab.Rows) != 2 {
		t.Errorf("surrogate ablation rows: %d", len(tab.Rows))
	}
	if tab := ablationRDef(48, []int{2, 4}).Run(17, 1); len(tab.Rows) != 2 {
		t.Errorf("R ablation rows: %d", len(tab.Rows))
	}
	tab := ablationBaseDef(48, []int{4, 16}).Run(18, 1)
	if len(tab.Rows) != 2 {
		t.Fatalf("base ablation rows: %d", len(tab.Rows))
	}
	// Larger base ⇒ fewer hops, more state.
	if cell(t, tab, 1, 1) > cell(t, tab, 0, 1)+1 {
		t.Errorf("base-16 should not need more hops than base-4:\n%s", tab)
	}
}

func TestContinualOptimizationShape(t *testing.T) {
	tab := continualOptimizationDef(48).Run(20, 1)
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 stages:\n%s", tab)
	}
	baseline := cell(t, tab, 0, 2)
	drifted := cell(t, tab, 1, 2)
	tuned := cell(t, tab, 2, 2)
	refined := cell(t, tab, 3, 2)
	reacq := cell(t, tab, 4, 2)
	if drifted <= baseline {
		t.Errorf("drift did not worsen stretch (%g -> %g)\n%s", baseline, drifted, tab)
	}
	if tuned > drifted {
		t.Errorf("tuning made stretch worse (%g -> %g)\n%s", drifted, tuned, tab)
	}
	if refined > tuned+1e-9 {
		t.Errorf("engine refine made stretch worse (%g -> %g)\n%s", tuned, refined, tab)
	}
	if reacq > baseline*1.5+0.5 {
		t.Errorf("full reacquire should approach baseline: %g vs %g\n%s", reacq, baseline, tab)
	}
	for _, row := range tab.Rows {
		if !strings.Contains(row[3], "100.00%") {
			t.Errorf("availability dipped in stage %q: %s", row[0], row[3])
		}
	}
}

func TestMetricExpansionShape(t *testing.T) {
	tab := metricExpansionDef().Run(19, 1)
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 spaces:\n%s", tab)
	}
	// Lattices must pass the b=16 check.
	for row := 0; row < 2; row++ {
		if tab.Rows[row][4] != "yes" {
			t.Errorf("space %s should satisfy b > c²:\n%s", tab.Rows[row][0], tab)
		}
	}
}
