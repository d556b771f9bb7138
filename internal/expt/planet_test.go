package expt

import "testing"

// TestPlanetTwinReplayAndWorkerInvariance pins the E-planet determinism
// contract end to end: the whole virtual-time run — sampled build, engine
// event order, churn, maintenance, queries — is byte-identical when replayed
// under the same seed, and independent of the sampled build's worker count.
func TestPlanetTwinReplayAndWorkerInvariance(t *testing.T) {
	const nodes, objects, epochs, queries = 600, 4000, 2, 128
	run := func(workers int) string {
		return planetDef(nodes, objects, epochs, queries, workers).Run(7, 1).String()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Fatalf("E-planet twin runs diverged:\n%s\nvs\n%s", a, b)
	}
	if c := run(8); c != a {
		t.Fatalf("E-planet differs across build workers:\n%s\nvs\n%s", c, a)
	}
}

// TestPlanetAcceptance sanity-checks one reduced run: every epoch row exists,
// availability stays high (the overlay repairs through churn), and the
// virtual clock snapshots land on the epoch boundaries.
func TestPlanetAcceptance(t *testing.T) {
	tbl := planetDef(600, 4000, 2, 128, 0).Run(9, 1)
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows, want 2:\n%s", len(tbl.Rows), tbl.String())
	}
	for i, row := range tbl.Rows {
		if row[9] == "0/128 (0.00%)" {
			t.Errorf("epoch %d: zero availability:\n%s", i+1, tbl.String())
		}
		if row[8] == "0" {
			t.Errorf("epoch %d: zero maintenance messages:\n%s", i+1, tbl.String())
		}
		wantClock := []string{"100", "200"}[i]
		if row[14] != wantClock {
			t.Errorf("epoch %d: clock %s, want %s", i+1, row[14], wantClock)
		}
	}
}
