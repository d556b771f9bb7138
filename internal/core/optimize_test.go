package core

import (
	"fmt"
	"strings"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// degradeTables worsens every node's tables via DegradePrimariesForTest,
// simulating network-distance drift (§6.4's problem statement: "network
// distance can change over time, potentially thwarting our efforts to
// provide locally optimal routes").
func degradeTables(m *Mesh) int {
	degraded := 0
	for _, n := range m.Nodes() {
		degraded += n.DegradePrimariesForTest()
	}
	return degraded
}

func TestReorderNeighborSetsRestoresPrimaries(t *testing.T) {
	m, _ := buildMesh(t, 32, testConfig(), 61)
	if degradeTables(m) == 0 {
		t.Fatal("nothing degraded; test is vacuous")
	}
	if v := m.AuditProperty2(); len(v) == 0 {
		t.Fatal("degradation should violate Property 2")
	}
	changed := 0
	for _, n := range m.Nodes() {
		changed += n.ReorderNeighborSets(nil)
	}
	if changed == 0 {
		t.Fatal("no primaries restored")
	}
	// Re-measurement pulls distances from the (unchanged) metric, so
	// Property 2 ordering within sets is restored.
	for _, n := range m.Nodes() {
		n.lockedView(func(tb *route.Table) {
			for l := 0; l < tb.Levels(); l++ {
				for d := 0; d < tb.Base(); d++ {
					set := tb.Set(l, ids.Digit(d))
					for i := 1; i < len(set); i++ {
						if set[i-1].Distance > set[i].Distance {
							t.Fatalf("set (%d,%d) on %v unsorted after reorder", l, d, n.id)
						}
					}
				}
			}
		})
	}
}

func TestShareTablesSpreadsLocality(t *testing.T) {
	// Build with a deliberately tiny k so tables start suboptimal, then
	// gossip until convergence; the violation count must fall.
	cfg := testConfig()
	cfg.K = 2
	m, _ := buildMesh(t, 40, cfg, 62)
	before := len(m.AuditProperty2())
	if before == 0 {
		t.Skip("tables already optimal; nothing to improve")
	}
	totalAdopted := 0
	for round := 0; round < 4; round++ {
		for _, n := range m.Nodes() {
			totalAdopted += n.ShareTables(nil)
		}
	}
	after := len(m.AuditProperty2())
	if totalAdopted == 0 {
		t.Fatal("gossip adopted nothing")
	}
	if after >= before {
		t.Fatalf("gossip did not improve tables: %d -> %d violations", before, after)
	}
}

func TestReacquireTableRestoresOptimality(t *testing.T) {
	cfg := testConfig()
	cfg.K = 2 // poor initial construction
	m, _ := buildMesh(t, 32, cfg, 63)
	if len(m.AuditProperty2()) == 0 {
		t.Skip("already optimal")
	}
	// Re-acquire with a generous k.
	m.cfg.K = 32
	for _, n := range m.Nodes() {
		if err := n.ReacquireTable(nil); err != nil {
			t.Fatalf("reacquire on %v: %v", n.id, err)
		}
	}
	if v := m.AuditProperty2(); len(v) != 0 {
		t.Fatalf("%d Property 2 violations after full reacquire:\n%v", len(v), v[:min(3, len(v))])
	}
}

func TestTuneEpochMaintainsProperty4(t *testing.T) {
	m, nodes := buildMesh(t, 32, testConfig(), 64)
	guid := testSpec.Hash("tuned-object")
	if err := nodes[4].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	degradeTables(m)
	var cost netsim.Cost
	reordered, _ := m.TuneEpoch(&cost)
	if reordered == 0 {
		t.Fatal("tuning found nothing to fix")
	}
	if cost.Messages() == 0 {
		t.Fatal("tuning cost not accounted")
	}
	if v := m.AuditProperty4(); len(v) != 0 {
		t.Fatalf("Property 4 broken after tuning:\n%v", v[:min(3, len(v))])
	}
	for _, c := range m.Nodes() {
		if res := c.Locate(guid, nil); !res.Found {
			t.Fatalf("object lost after tuning (client %v)", c.id)
		}
	}
}

func TestReorderSkipsDeadNeighbors(t *testing.T) {
	m, nodes := buildMesh(t, 24, testConfig(), 65)
	victim := nodes[7]
	m.Fail(victim)
	for _, n := range m.Nodes() {
		n.ReorderNeighborSets(nil) // must not panic or resurrect the corpse
	}
	for _, n := range m.Nodes() {
		n.lockedView(func(tb *route.Table) {
			for l := 0; l < tb.Levels(); l++ {
				for d := 0; d < tb.Base(); d++ {
					for _, e := range tb.Set(l, ids.Digit(d)) {
						if e.ID.Equal(victim.id) && e.Distance == 0 {
							t.Fatal("dead neighbor re-measured at distance 0")
						}
					}
				}
			}
		})
	}
}

func TestReacquireOnLonerIsNoop(t *testing.T) {
	net := netsim.New(metric.NewRing(8))
	m, err := NewMesh(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Bootstrap(testSpec.Hash("solo"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ReacquireTable(nil); err != nil {
		t.Fatalf("loner reacquire should be a no-op, got %v", err)
	}
}

// TestSnapshotOrderDeterministicUnderLoss repeats one lossy scenario on twin
// meshes and requires identical outcomes. Under link loss, which probes draw
// a loss decides which neighbors ReorderNeighborSets re-measures, so its
// probe order must be fixed; the stale entries AuditProperty1 reports after
// crashes must come out in a fixed order too. Both once followed Go map
// order.
func TestSnapshotOrderDeterministicUnderLoss(t *testing.T) {
	run := func() string {
		m, nodes := buildMesh(t, 48, testConfig(), 7)
		degradeTables(m)
		m.net.SetLinkFaults(0.3, 0, 99)
		var cost netsim.Cost
		out := ""
		for _, n := range nodes[:8] {
			out += fmt.Sprintf("%d ", n.ReorderNeighborSets(&cost))
		}
		m.net.SetLinkFaults(0, 0, 0)
		out += fmt.Sprintf("| msgs %d | P2 %d |", cost.Messages(), len(m.AuditProperty2()))
		for _, n := range nodes[10:14] {
			m.Fail(n)
		}
		return out + strings.Join(m.AuditProperty1(), ";")
	}
	want := run()
	for i := 1; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d diverged from run 0:\n got %s\nwant %s", i, got, want)
		}
	}
}
