package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// oracleClosest scans every live node and returns the nodes qualifying for
// slot (level, digit) of n's table sorted by (distance, ID) — the ground
// truth the §4.2 search is measured against.
func oracleClosest(m *Mesh, n *Node, level int, digit ids.Digit) []route.Entry {
	var out []route.Entry
	for _, peer := range m.Nodes() {
		if peer.id.Equal(n.id) {
			continue
		}
		if ids.CommonPrefixLen(n.id, peer.id) < level || peer.id.Digit(level) != digit {
			continue
		}
		out = append(out, route.Entry{
			ID:       peer.id,
			Addr:     peer.addr,
			Distance: m.net.Distance(n.addr, peer.addr),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Distance != out[j].Distance {
			return out[i].Distance < out[j].Distance
		}
		return out[i].ID.Less(out[j].ID)
	})
	return out
}

// TestNearestForSlotMatchesOracle: across every populated slot of several
// nodes, the slot search must return a closest candidate at the true oracle
// distance (distance ties are interchangeable) in the overwhelming majority
// of cases — this is the Property 2 quality the repair path inherits.
func TestNearestForSlotMatchesOracle(t *testing.T) {
	m, nodes := buildMesh(t, 64, testConfig(), 31)
	checked, matched := 0, 0
	for _, n := range nodes[:16] {
		for level := 0; level < testSpec.Digits; level++ {
			for d := 0; d < testSpec.Base; d++ {
				digit := ids.Digit(d)
				if digit == n.id.Digit(level) {
					continue // the self slot never needs repair
				}
				want := oracleClosest(m, n, level, digit)
				if len(want) == 0 {
					continue
				}
				got := n.NearestForSlot(level, digit, nil)
				checked++
				if len(got) > 0 && got[0].Distance <= want[0].Distance+1e-9 {
					matched++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no populated slots checked")
	}
	if frac := float64(matched) / float64(checked); frac < 0.95 {
		t.Fatalf("slot search matched oracle on %d/%d slots (%.1f%%), want >= 95%%",
			matched, checked, 100*frac)
	}
}

// TestRepairHoleNearestRefillsWithClosest kills nodes and verifies that the
// engine-based repair refills the resulting holes with the oracle-closest
// live candidate (the E-repair acceptance bar, asserted at unit scale).
func TestRepairHoleNearestRefillsWithClosest(t *testing.T) {
	cfg := testConfig()
	cfg.Repair = RepairNearest
	m, nodes := buildMesh(t, 48, cfg, 32)

	// Kill 8 nodes, then record which slots of which survivors emptied.
	victims := map[string]bool{}
	for i := 2; i < 48 && len(victims) < 8; i += 6 {
		victims[nodes[i].id.String()] = true
		m.Fail(nodes[i])
	}
	type hole struct {
		n     *Node
		level int
		digit ids.Digit
	}
	var holes []hole
	for _, n := range m.Nodes() {
		n.mu.Lock()
		for l := 0; l < n.table.Levels(); l++ {
			for d := 0; d < n.table.Base(); d++ {
				set := n.table.SetView(l, ids.Digit(d))
				if len(set) == 0 {
					continue
				}
				allVictims := true
				for _, e := range set {
					if !victims[e.ID.String()] {
						allVictims = false
						break
					}
				}
				if allVictims {
					holes = append(holes, hole{n, l, ids.Digit(d)})
				}
			}
		}
		n.mu.Unlock()
	}
	for _, n := range m.Nodes() {
		n.SweepDead(nil)
	}

	refilled, matched := 0, 0
	for _, h := range holes {
		want := oracleClosest(m, h.n, h.level, h.digit)
		h.n.mu.Lock()
		set := h.n.table.Set(h.level, h.digit)
		h.n.mu.Unlock()
		if len(want) == 0 {
			continue // legitimate hole now
		}
		if len(set) == 0 {
			t.Errorf("node %v slot (%d,%d): hole not refilled though %d candidates exist",
				h.n.id, h.level, h.digit, len(want))
			continue
		}
		refilled++
		if set[0].Distance <= want[0].Distance+1e-9 {
			matched++
		}
	}
	if refilled == 0 {
		t.Skip("churn produced no refillable holes at this seed")
	}
	if frac := float64(matched) / float64(refilled); frac < 0.95 {
		t.Fatalf("repair matched oracle on %d/%d refilled holes (%.1f%%), want >= 95%%",
			matched, refilled, 100*frac)
	}
}

// TestSweepDeadCountsLinksPerLevel: SweepDead's return value counts dead
// links removed — one per level the corpse occupied — not dead neighbors.
func TestSweepDeadCountsLinksPerLevel(t *testing.T) {
	m, nodes := buildMesh(t, 32, testConfig(), 33)
	// Find a (survivor, victim) pair where the victim occupies several levels
	// of the survivor's table (CPL >= 1 makes it eligible for levels 0..CPL).
	var survivor, victim *Node
	wantLinks := 0
	for _, s := range nodes {
		for _, v := range nodes {
			if v.id.Equal(s.id) {
				continue
			}
			links := 0
			s.mu.Lock()
			for l := 0; l < s.table.Levels(); l++ {
				if s.table.Contains(l, v.id) {
					links++
				}
			}
			s.mu.Unlock()
			if links > wantLinks {
				survivor, victim, wantLinks = s, v, links
			}
		}
	}
	if wantLinks < 2 {
		t.Fatalf("no multi-level neighbor pair in this mesh (best %d links)", wantLinks)
	}
	m.Fail(victim)
	if got := survivor.SweepDead(nil); got != wantLinks {
		t.Fatalf("SweepDead returned %d, want %d (links at %d levels)", got, wantLinks, wantLinks)
	}
}

// meshFingerprint renders every node's complete routing and object state in
// canonical order, for bit-identical comparisons across equally-seeded runs.
func meshFingerprint(m *Mesh) string {
	var b strings.Builder
	for _, n := range m.Nodes() {
		n.mu.Lock()
		fmt.Fprintf(&b, "node %v@%d state=%d\n", n.id, n.addr, n.state)
		for l := 0; l < n.table.Levels(); l++ {
			for d := 0; d < n.table.Base(); d++ {
				for _, e := range n.table.SetView(l, ids.Digit(d)) {
					fmt.Fprintf(&b, "  f %d/%d %v@%d %.9g %v %v\n",
						l, d, e.ID, e.Addr, e.Distance, e.Pinned, e.Leaving)
				}
			}
			for _, e := range n.table.Backs(l) {
				fmt.Fprintf(&b, "  b %d %v@%d\n", l, e.ID, e.Addr)
			}
		}
		for _, g := range sortedGUIDs(n.objects) {
			for _, r := range n.objects[g].recs {
				fmt.Fprintf(&b, "  o %s srv=%v lvl=%d root=%v\n", g, r.server, r.level, r.root)
			}
		}
		n.mu.Unlock()
	}
	return b.String()
}

// TestLeaveDeterministic: two identically-seeded meshes performing the same
// sequence of Leaves must end bit-identical — the departure protocol must
// not depend on map-iteration order (the same class of bug PR 1 purged for
// byte-identical -workers output).
func TestLeaveDeterministic(t *testing.T) {
	build := func() (*Mesh, []*Node) {
		m, nodes := buildMesh(t, 40, testConfig(), 34)
		for i := 0; i < 6; i++ {
			g := testSpec.Hash(fmt.Sprintf("leave-det-%d", i))
			if err := nodes[i].Publish(g, nil); err != nil {
				t.Fatal(err)
			}
		}
		return m, nodes
	}
	leave := func(m *Mesh) string {
		// Leave every 4th node in ID order, skipping the first 6 (servers).
		// The per-leave message counts and distances go into the fingerprint:
		// repair searches are path-dependent, so any order nondeterminism in
		// the departure protocol shows up in the costs even when canonical
		// tie-breaking hides it from the final tables.
		nodes := m.Nodes()
		var victims []*Node
		for i := 6; i < len(nodes); i += 4 {
			victims = append(victims, nodes[i])
		}
		var costs strings.Builder
		for _, v := range victims {
			var c netsim.Cost
			if err := v.Leave(&c); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&costs, "leave %v: %d msgs %.9g dist\n", v.id, c.Messages(), c.Distance())
		}
		return costs.String()
	}
	m1, _ := build()
	m2, _ := build()
	if f1, f2 := meshFingerprint(m1), meshFingerprint(m2); f1 != f2 {
		t.Fatal("identically-seeded meshes diverged before any Leave (build nondeterminism)")
	}
	c1 := leave(m1)
	c2 := leave(m2)
	f1, f2 := meshFingerprint(m1)+c1, meshFingerprint(m2)+c2
	if f1 != f2 {
		i := 0
		for i < len(f1) && i < len(f2) && f1[i] == f2[i] {
			i++
		}
		lo := i - 200
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("meshes diverged after identical Leaves; first difference at byte %d:\n...%s\nvs\n...%s",
			i, f1[lo:min(i+200, len(f1))], f2[lo:min(i+200, len(f2))])
	}
}

// TestNearestRepairConcurrentChurn interleaves Join, Leave, Fail and
// SweepDead so the §4.2 searches run against mid-insertion and mid-departure
// tables; run under -race this is the engine's concurrency regression test.
// Operations may individually fail (a gateway dies mid-join, a leaver is
// already gone) — the invariant is no data race, no deadlock, no panic, and
// a functioning mesh afterwards.
func TestNearestRepairConcurrentChurn(t *testing.T) {
	cfg := testConfig()
	space := metric.NewRing(1024)
	net := netsim.New(space)
	m, err := NewMesh(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	perm := rng.Perm(space.Size())
	next := 0
	takeAddr := func() netsim.Addr { a := netsim.Addr(perm[next]); next++; return a }
	if _, err := m.Bootstrap(testSpec.Random(rng), takeAddr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := m.Join(m.randomLiveNode(rng), m.freshID(rng), takeAddr()); err != nil {
			t.Fatal(err)
		}
	}

	const joiners, churners, ops = 2, 2, 8
	addrs := make(chan netsim.Addr, joiners*ops)
	for i := 0; i < joiners*ops; i++ {
		addrs <- takeAddr()
	}
	var wg sync.WaitGroup
	for w := 0; w < joiners; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				gw := m.randomLiveNode(rng)
				if gw == nil {
					continue
				}
				_, _, _ = m.Join(gw, m.freshID(rng), <-addrs)
			}
		}(int64(100 + w))
	}
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				nodes := m.Nodes()
				if len(nodes) < 8 {
					continue
				}
				victim := nodes[rng.Intn(len(nodes))]
				switch i % 3 {
				case 0:
					_ = victim.Leave(nil)
				case 1:
					m.Fail(victim)
				default:
					victim.SweepDead(nil)
				}
				if sweeper := m.randomLiveNode(rng); sweeper != nil {
					sweeper.SweepDead(nil)
				}
			}
		}(int64(200 + w))
	}
	wg.Wait()

	// The dust settles: a full sweep then a routing sanity check.
	for _, n := range m.Nodes() {
		n.SweepDead(nil)
	}
	if m.Size() == 0 {
		t.Fatal("mesh emptied out")
	}
	key := testSpec.Hash("post-churn-key")
	var rootID ids.ID
	for _, n := range m.Nodes() {
		res, err := n.routeToKey(key, nil, wire.RouteOpRoute, nil)
		if err != nil {
			t.Fatalf("routing from %v failed post-churn: %v", n.id, err)
		}
		if rootID.IsZero() {
			rootID = res.node.id
		} else if !rootID.Equal(res.node.id) {
			t.Fatalf("post-churn root disagreement: %v vs %v", rootID, res.node.id)
		}
	}
}

type slotPick struct {
	node  *Node
	level int
	digit ids.Digit
}

func benchSlotPicks(nodes []*Node, rng *rand.Rand, n int) []slotPick {
	picks := make([]slotPick, n)
	for i := range picks {
		picks[i] = slotPick{
			node:  nodes[rng.Intn(len(nodes))],
			level: rng.Intn(2), // low levels are the populated (expensive) ones
			digit: ids.Digit(rng.Intn(testSpec.Base)),
		}
	}
	return picks
}

// BenchmarkRepairHoleScan measures the legacy informant scan on the slots
// that BenchmarkMicro/NearestForSlot (internal/microbench) searches, for
// comparison (it may mutate tables, so it operates on a clone-free
// best-effort basis: the slot contents converge after the first iteration).
func BenchmarkRepairHoleScan(b *testing.B) {
	cfg := testConfig()
	cfg.Repair = RepairScan
	_, nodes := buildMesh(b, 64, cfg, 36)
	rng := rand.New(rand.NewSource(37))
	picks := benchSlotPicks(nodes, rng, 1<<12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := picks[i%len(picks)]
		p.node.repairHoleScan(p.level, p.digit, ids.ID{}, nil)
	}
}
