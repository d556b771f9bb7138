package expt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"tapestry/internal/core"
	"tapestry/internal/genmetric"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// Every experiment below is expressed as a Def — a table skeleton plus
// independent cells — so the Runner can fan cells across workers.

// stretchVsDistanceDef (E5) measures routing stretch — distance traveled
// over the distance to the nearest replica — bucketed by client-replica
// distance decile. This is the Table 1 "Stretch" column and the Section 2.2
// claim: Tapestry keeps stretch small especially for NEARBY objects (the
// query path intersects the publish path early), while Chord/Pastry pay the
// full trip to a random root regardless. A single cell: the decile buckets
// aggregate over all queries, so the table cannot be split.
func stretchVsDistanceDef(n, objects, queries int) Def {
	d := Def{
		Name: "StretchVsDistance",
		Table: Table{
			Title:  "Stretch vs. object distance (Table 1 Stretch column; Fig. 3 scenario)",
			Note:   "per-decile mean stretch; Tapestry should dominate at small distances",
			Header: []string{"distance decile", "tapestry", "chord", "pastry", "directory"},
		},
	}
	systems := []string{"tapestry", "chord", "pastry", "directory"}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		rng := subRNG(seed, "workload")
		bseed := subSeed(seed, "build")
		space := ringSpace(n)
		diameter := float64(space.Size()) / 2
		addrs := pickAddrs(space, n, rand.New(rand.NewSource(bseed)))

		place := workload.UniformPlacement(objects, 1, n, rng)
		mix := workload.UniformQueries(queries, n, objects, rng)

		// buckets[b][sys] is the per-decile stretch summary of one system.
		buckets := make([]map[string]*stats.Summary, 10)
		for b := range buckets {
			buckets[b] = make(map[string]*stats.Summary, len(systems))
			for _, sys := range systems {
				buckets[b][sys] = &stats.Summary{}
			}
		}
		for _, sys := range systems {
			env := buildOverlay(sys, space, addrs, overlay.Config{Seed: bseed, Static: true})
			for i := range place.Names {
				env.publish(place.Servers[i][0], place.Names[i])
			}
			for i := range mix.Clients {
				ci, oi := mix.Clients[i], mix.Objects[i]
				si := place.Servers[oi][0]
				if ci == si {
					continue
				}
				direct := space.Distance(int(addrs[ci]), int(addrs[si]))
				if direct == 0 {
					continue
				}
				b := int(direct / diameter * 10)
				if b > 9 {
					b = 9
				}
				if res, cost := env.locate(ci, place.Names[oi]); res.Found {
					buckets[b][sys].Add(cost.Distance() / direct)
				}
			}
		}
		for b := range buckets {
			if buckets[b]["tapestry"].N() == 0 {
				continue
			}
			t.AddRow(fmt.Sprintf("%d-%d%%", b*10, (b+1)*10), buckets[b]["tapestry"].Mean(),
				buckets[b]["chord"].Mean(), buckets[b]["pastry"].Mean(), buckets[b]["directory"].Mean())
		}
	}})
	return d
}

// surrogateOverheadDef (E6) measures the extra hops surrogate routing takes
// beyond resolving the digits that any node shares with the key — the
// Section 2.3 claim that the overhead "is independent of n and in
// expectation is less than 2". One cell per network size.
func surrogateOverheadDef(sizes []int, keys int) Def {
	d := Def{
		Name: "SurrogateOverhead",
		Table: Table{
			Title:  "Surrogate-routing overhead (§2.3: expected extra hops < 2, independent of n)",
			Header: []string{"n", "mean hops", "mean maxCPL(key)", "extra hops", "p99 extra"},
		},
	}
	for _, n := range sizes {
		n := n
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
			env := buildTapestry(ringSpace(n), n, defaultTapConfig(), subSeed(seed, "build"), false)
			rng := subRNG(seed, "keys")
			var extra, hopsS, cplS stats.Summary
			for k := 0; k < keys; k++ {
				key := exptSpec.Random(rng)
				start := env.nodes[rng.Intn(len(env.nodes))]
				_, hops, err := start.SurrogateFor(key, nil)
				if err != nil {
					panic(err)
				}
				// The digit-resolution floor: the best prefix match any node
				// has with this key — hops below that are "real", the rest
				// are surrogate detours.
				best := 0
				for _, node := range env.nodes {
					if c := ids.CommonPrefixLen(node.ID(), key); c > best {
						best = c
					}
				}
				hopsS.AddInt(hops)
				cplS.AddInt(best)
				e := float64(hops - best)
				if e < 0 {
					e = 0
				}
				extra.Add(e)
			}
			t.AddRow(n, hopsS.Mean(), cplS.Mean(), extra.Mean(), extra.Quantile(0.99))
		}})
	}
	return d
}

// nnCorrectnessDef (E7) sweeps the nearest-neighbor list width k (Section 3,
// Lemmas 1-2): for each k, grow a mesh dynamically and report the rate of
// Property 2 violations (slots not holding the R closest nodes) and any
// Property 1 violations. Theorem 3 predicts violations vanish as k reaches
// O(log n). One cell per k — the dynamic grow dominates, so the sweep
// parallelizes almost perfectly.
func nnCorrectnessDef(n int, ks []int) Def {
	d := Def{
		Name: "NNCorrectness",
		Table: Table{
			Title:  "Nearest-neighbor construction vs list width k (§3, Thm 3: exact w.h.p. at k=O(log n))",
			Header: []string{"k", "P2 violations", "links", "violation rate", "P1 violations"},
		},
	}
	for _, k := range ks {
		k := k
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("k=%d", k), Run: func(seed int64, t *Table) {
			cfg := defaultTapConfig()
			cfg.K = k
			env := buildTapestry(ringSpace(n), n, cfg, subSeed(seed, "build"), true)
			v2 := env.mesh.AuditProperty2()
			links := 0
			for _, node := range env.nodes {
				links += node.Table().NeighborCount()
			}
			v1 := env.mesh.AuditProperty1()
			rate := 0.0
			if links > 0 {
				rate = float64(len(v2)) / float64(links)
			}
			t.AddRow(k, len(v2), links, rate, len(v1))
		}})
	}
	return d
}

// multicastDef (E8) measures acknowledged multicast (§4.1, Thm 5): for each
// prefix length, the nodes reached, messages spent, and the messages-per-
// node ratio (Theorem 5's O(k) message bound). A single cell: the prefix
// sweep reuses one mesh, which costs more to build than all the trials.
func multicastDef(n int) Def {
	d := Def{
		Name: "Multicast",
		Table: Table{
			Title:  "Acknowledged multicast (§4.1, Thm 5: reaches all α-nodes in O(k) messages)",
			Header: []string{"prefix len", "trials", "mean reached", "mean msgs", "msgs/reached"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		env := buildTapestry(ringSpace(n), n, defaultTapConfig(), subSeed(seed, "build"), false)
		rng := subRNG(seed, "trials")
		for plen := 0; plen <= 3; plen++ {
			var reached, msgs stats.Summary
			trials := 8
			for trial := 0; trial < trials; trial++ {
				start := env.nodes[rng.Intn(len(env.nodes))]
				var cost netsim.Cost
				got, err := start.AcknowledgedMulticast(start.ID().Prefix(plen), nil, &cost)
				if err != nil {
					panic(err)
				}
				reached.AddInt(len(got))
				msgs.AddInt(cost.Messages())
			}
			ratio := msgs.Mean() / math.Max(reached.Mean(), 1)
			t.AddRow(plen, trials, reached.Mean(), msgs.Mean(), ratio)
		}
	}})
	return d
}

// availabilityDuringJoinDef (E9) interleaves queries with node insertions
// (§4.3, Figure 10): every query must succeed at every point of the growth.
// Queries run between individual joins (a deterministic schedule, so the
// engine's byte-identical-output contract holds); availability under joins
// that are literally in flight is E10's territory.
func availabilityDuringJoinDef(n, joins int64) Def {
	d := Def{
		Name: "AvailabilityDuringJoin",
		Table: Table{
			Title:  "Availability during insertion (§4.3: objects remain available)",
			Header: []string{"n(base)", "joins", "queries", "failures", "success"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d joins=%d", n, joins), Run: func(seed int64, t *Table) {
		cfg := defaultTapConfig()
		rng := subRNG(seed, "grow")
		space := metric.NewRing(int(4 * (n + joins)))
		net := netsim.New(space)
		m, err := core.NewMesh(net, cfg)
		if err != nil {
			panic(err)
		}
		addrs := pickAddrs(space, int(n+joins), rng)
		base, _, err := m.GrowSequential(addrs[:n], rng)
		if err != nil {
			panic(err)
		}
		guids := make([]ids.ID, 8)
		for i := range guids {
			guids[i] = exptSpec.Hash(fmt.Sprintf("avail-%d", i))
			if err := base[i].Publish(guids[i], nil); err != nil {
				panic(err)
			}
		}
		var ratio stats.Ratio
		qrng := subRNG(seed, "queries")
		probe := func() {
			for q := 0; q < 4; q++ {
				c := base[qrng.Intn(len(base))]
				g := guids[qrng.Intn(len(guids))]
				ratio.Observe(c.Locate(g, nil).Found)
			}
		}
		for i := n; i < n+joins; i++ {
			if _, _, err := m.GrowSequential(addrs[i:i+1], rng); err != nil {
				panic(err)
			}
			probe()
		}
		t.AddRow(n, joins, ratio.Total, ratio.Total-ratio.Success, ratio.String())
	}})
	return d
}

// parallelJoinDef (E10) inserts batches of nodes concurrently (§4.4, Thm 6)
// and audits Property 1 after each wave, while a query loop exercises the
// §4.3 claim on joins that are literally in flight: published objects must
// stay locatable throughout. Only the failure count is reported (expected
// 0), since the number of queries that fit inside a wave is scheduling-
// dependent. A single cell: waves are a causal chain over one mesh (the
// experiment's own concurrency is internal).
func parallelJoinDef(base, waves, batch int) Def {
	d := Def{
		Name: "ParallelJoin",
		Table: Table{
			Title:  "Simultaneous insertion (§4.4, Thm 6: no fillable holes after concurrent joins)",
			Header: []string{"wave", "n after", "P1 violations", "root divergences", "in-flight locate failures"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("base=%d", base), Run: func(seed int64, t *Table) {
		cfg := defaultTapConfig()
		rng := subRNG(seed, "join")
		total := base + waves*batch
		space := metric.NewRing(4 * total)
		net := netsim.New(space)
		m, err := core.NewMesh(net, cfg)
		if err != nil {
			panic(err)
		}
		addrs := pickAddrs(space, total, rng)
		nodes, _, err := m.GrowSequential(addrs[:base], rng)
		if err != nil {
			panic(err)
		}
		guids := make([]ids.ID, 6)
		for i := range guids {
			guids[i] = exptSpec.Hash(fmt.Sprintf("pj-%d", i))
			if err := nodes[i%len(nodes)].Publish(guids[i], nil); err != nil {
				panic(err)
			}
		}
		next := base
		for wave := 0; wave < waves; wave++ {
			var wg sync.WaitGroup
			errs := make([]error, batch)
			for i := 0; i < batch; i++ {
				gw := nodes[rng.Intn(len(nodes))]
				id := exptSpec.Random(rng)
				for m.NodeByID(id) != nil {
					id = exptSpec.Random(rng)
				}
				addr := addrs[next]
				next++
				wg.Add(1)
				go func(i int, gw *core.Node, id ids.ID, addr netsim.Addr) {
					defer wg.Done()
					_, _, errs[i] = m.Join(gw, id, addr)
				}(i, gw, id, addr)
			}
			// Availability during in-flight joins (§4.3): hammer Locate from
			// pre-wave nodes until every join of the wave has completed.
			stop := make(chan struct{})
			var qwg sync.WaitGroup
			qwg.Add(1)
			fails := 0
			go func() {
				defer qwg.Done()
				qrng := rand.New(rand.NewSource(stats.StreamSeed(seed, "inflight", wave)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					c := nodes[qrng.Intn(len(nodes))]
					if !c.Locate(guids[qrng.Intn(len(guids))], nil).Found {
						fails++
					}
				}
			}()
			wg.Wait()
			close(stop)
			qwg.Wait()
			for _, err := range errs {
				if err != nil {
					panic(err)
				}
			}
			nodes = m.Nodes()
			v1 := m.AuditProperty1()
			keys := []ids.ID{exptSpec.Random(rng), exptSpec.Random(rng), exptSpec.Random(rng)}
			vr := m.AuditUniqueRoots(keys)
			t.AddRow(wave+1, m.Size(), len(v1), len(vr), fails)
		}
	}})
	return d
}

// deletionDef (E11) exercises Section 5: voluntary departures must preserve
// availability throughout; involuntary failures lose objects rooted at the
// corpse until a republish epoch restores them.
func deletionDef(n int) Def {
	d := Def{
		Name: "Deletion",
		Table: Table{
			Title:  "Node deletion (§5): availability across voluntary and involuntary departure",
			Header: []string{"phase", "live nodes", "locate success", "P1 violations"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		cfg := defaultTapConfig()
		env := buildTapestry(ringSpace(n), n, cfg, subSeed(seed, "build"), true)
		m := env.mesh
		rng := subRNG(seed, "workload")
		guids := make([]ids.ID, 12)
		servers := map[string]bool{}
		for i := range guids {
			guids[i] = exptSpec.Hash(fmt.Sprintf("del-%d", i))
			s := env.nodes[rng.Intn(len(env.nodes))]
			if err := s.Publish(guids[i], nil); err != nil {
				panic(err)
			}
			servers[s.ID().String()] = true
		}
		measure := func(phase string) {
			var r stats.Ratio
			for _, g := range guids {
				for probe := 0; probe < 4; probe++ {
					nodes := m.Nodes()
					c := nodes[rng.Intn(len(nodes))]
					r.Observe(c.Locate(g, nil).Found)
				}
			}
			t.AddRow(phase, m.Size(), r.String(), len(m.AuditProperty1()))
		}
		measure("baseline")
		// Voluntary: a quarter of non-servers leave gracefully.
		left := 0
		for _, node := range m.Nodes() {
			if left >= n/4 {
				break
			}
			if servers[node.ID().String()] {
				continue
			}
			if err := node.Leave(nil); err == nil {
				left++
			}
		}
		measure(fmt.Sprintf("after %d voluntary leaves", left))
		// Involuntary: kill an eighth of non-servers without notice.
		killed := 0
		for _, node := range m.Nodes() {
			if killed >= n/8 {
				break
			}
			if servers[node.ID().String()] {
				continue
			}
			m.Fail(node)
			killed++
		}
		for _, node := range m.Nodes() {
			node.SweepDead(nil)
		}
		measure(fmt.Sprintf("after %d failures + sweep (pre-republish)", killed))
		m.RunMaintenanceEpoch(nil)
		measure("after republish epoch")
	}})
	return d
}

// optimizePointersDef (E12) perturbs the mesh with joins, runs the Section
// 4.2 pointer redistribution, and audits Property 4 before/after.
func optimizePointersDef(n, extraJoins int) Def {
	d := Def{
		Name: "OptimizePointers",
		Table: Table{
			Title:  "Object-pointer redistribution (§4.2, Property 4 audit)",
			Header: []string{"stage", "P4 violations", "locate success"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		env := buildTapestry(ringSpace(n+extraJoins), n, defaultTapConfig(), subSeed(seed, "build"), true)
		m := env.mesh
		rng := subRNG(seed, "workload")
		guids := make([]ids.ID, 10)
		for i := range guids {
			guids[i] = exptSpec.Hash(fmt.Sprintf("opt-%d", i))
			if err := env.nodes[rng.Intn(len(env.nodes))].Publish(guids[i], nil); err != nil {
				panic(err)
			}
		}
		success := func() string {
			var r stats.Ratio
			for _, g := range guids {
				nodes := m.Nodes()
				for probe := 0; probe < 4; probe++ {
					r.Observe(nodes[rng.Intn(len(nodes))].Locate(g, nil).Found)
				}
			}
			return r.String()
		}
		t.AddRow("baseline", len(m.AuditProperty4()), success())
		// Perturb with joins.
		used := map[netsim.Addr]bool{}
		for _, node := range m.Nodes() {
			used[node.Addr()] = true
		}
		joined := 0
		for a := 0; a < m.Net().Size() && joined < extraJoins; a++ {
			if used[netsim.Addr(a)] {
				continue
			}
			id := exptSpec.Random(rng)
			for m.NodeByID(id) != nil {
				id = exptSpec.Random(rng)
			}
			gw := m.Nodes()[rng.Intn(m.Size())]
			if _, _, err := m.Join(gw, id, netsim.Addr(a)); err != nil {
				panic(err)
			}
			used[netsim.Addr(a)] = true
			joined++
		}
		t.AddRow(fmt.Sprintf("after %d joins", joined), len(m.AuditProperty4()), success())
		for _, node := range m.Nodes() {
			node.OptimizeObjectPtrs(nil)
		}
		t.AddRow("after OptimizeObjectPtrs", len(m.AuditProperty4()), success())
	}})
	return d
}

// stubLocalityDef (E13) reproduces the Section 6.3 experiment: on a transit-
// stub topology, local publication keeps intra-stub queries inside the stub
// and slashes their latency.
func stubLocalityDef() Def {
	d := Def{
		Name: "StubLocality",
		Table: Table{
			Title:  "Transit-stub locality optimization (§6.3: intra-stub queries never leave the stub)",
			Header: []string{"variant", "intra-stub queries", "stayed local", "mean latency", "mean stretch"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: "transit-stub", Run: func(seed int64, t *Table) {
		rng := subRNG(seed, "topology")
		p := metric.DefaultTransitStub()
		ts := metric.NewTransitStub(p, rng)
		net := netsim.New(ts)
		cfg := defaultTapConfig()
		m, err := core.NewMesh(net, cfg)
		if err != nil {
			panic(err)
		}
		labels := metric.Regions(ts)
		var addrs []netsim.Addr
		for a := 0; a < ts.Size(); a++ {
			if labels[a] >= 0 {
				addrs = append(addrs, netsim.Addr(a))
			}
		}
		nodes, _, err := m.GrowSequential(addrs, rng)
		if err != nil {
			panic(err)
		}
		byRegion := map[int][]*core.Node{}
		for _, n := range nodes {
			byRegion[labels[n.Addr()]] = append(byRegion[labels[n.Addr()]], n)
		}
		var regions []int
		for r, ms := range byRegion {
			if len(ms) >= 4 {
				regions = append(regions, r)
			}
		}
		sort.Ints(regions)

		run := func(local bool) (stayed, total int, lat, str stats.Summary) {
			for oi, r := range regions {
				members := byRegion[r]
				server := members[0]
				guid := exptSpec.Hash(fmt.Sprintf("stub-%v-%d-%d", local, seed, oi))
				if local {
					if err := server.PublishLocal(guid, nil); err != nil {
						panic(err)
					}
				} else {
					if err := server.Publish(guid, nil); err != nil {
						panic(err)
					}
				}
				for _, client := range members[1:] {
					var cost netsim.Cost
					var found bool
					var stayedLocal bool
					if local {
						res, loc := client.LocateLocal(guid, &cost)
						found, stayedLocal = res.Found, loc
					} else {
						res := client.Locate(guid, &cost)
						found = res.Found
						// A plain query "stayed local" only if it never paid a
						// wide-area link; detect via total distance below the
						// stub-internal bound.
						stayedLocal = cost.Distance() < p.StubUpWeight
					}
					if !found {
						panic("stub object not found")
					}
					total++
					if stayedLocal {
						stayed++
					}
					lat.Add(cost.Distance())
					direct := ts.Distance(int(client.Addr()), int(server.Addr()))
					if direct > 0 {
						str.Add(cost.Distance() / direct)
					}
				}
			}
			return
		}
		s1, t1, lat1, str1 := run(false)
		t.AddRow("plain publish/locate", t1, fmt.Sprintf("%d (%.0f%%)", s1, 100*float64(s1)/float64(t1)), lat1.Mean(), str1.Mean())
		s2, t2, lat2, str2 := run(true)
		t.AddRow("local-branch (§6.3)", t2, fmt.Sprintf("%d (%.0f%%)", s2, 100*float64(s2)/float64(t2)), lat2.Mean(), str2.Mean())
	}})
	return d
}

// generalMetricDef (E14) evaluates the Section 7 scheme (PRR v.0 row of
// Table 1) on a non-growth-restricted random-graph metric: measured stretch
// percentiles against the log³n budget, and per-node space against log²n.
// One cell per size.
func generalMetricDef(sizes []int) Def {
	d := Def{
		Name: "GeneralMetric",
		Table: Table{
			Title:  "General-metric scheme (§7, Thm 7: polylog stretch, O(log² n) space/node)",
			Header: []string{"n", "stretch p50", "stretch p90", "stretch max", "log3(n)", "space/node", "log2^2(n)"},
		},
	}
	for _, n := range sizes {
		n := n
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
			rng := subRNG(seed, "workload")
			space := metric.NewRandomGraph(n, 3, 10, rng)
			cfg := genmetric.DefaultConfig()
			cfg.Seed = subSeed(seed, "build")
			d := genmetric.Build(space, cfg)
			var stretch stats.Summary
			for o := 0; o < 16; o++ {
				obj := fmt.Sprintf("gm-%d", o)
				server := rng.Intn(n)
				d.Publish(obj, server)
				for q := 0; q < 16; q++ {
					x := rng.Intn(n)
					if x == server {
						continue
					}
					res := d.Lookup(obj, x)
					if !res.Found {
						panic("genmetric lookup failed")
					}
					stretch.Add(res.Dist / space.Distance(x, server))
				}
			}
			var sp stats.Summary
			for _, s := range d.SpacePerNode() {
				sp.AddInt(s)
			}
			l := math.Log2(float64(n))
			t.AddRow(n, stretch.Median(), stretch.Quantile(0.9), stretch.Max(), l*l*l, sp.Mean(), l*l)
		}})
	}
	return d
}

// multiRootDef (E15) measures Observation 1: with |R_ψ| salted roots,
// queries tolerate node failures by retrying other roots. We kill a fraction
// of nodes WITHOUT repair and compare success rates across root-set sizes.
// One cell per root-set size.
func multiRootDef(n int, rootSets []int, failFrac float64) Def {
	d := Def{
		Name: "MultiRoot",
		Table: Table{
			Title:  "Fault tolerance via multiple roots (Obs. 1): success under failures, no repair",
			Header: []string{"|R_psi|", "killed", "queries", "success"},
		},
	}
	for _, rs := range rootSets {
		rs := rs
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("roots=%d", rs), Run: func(seed int64, t *Table) {
			cfg := defaultTapConfig()
			cfg.RootSetSize = rs
			env := buildTapestry(ringSpace(n), n, cfg, subSeed(seed, "build"), true)
			m := env.mesh
			rng := subRNG(seed, "workload")
			guids := make([]ids.ID, 10)
			servers := map[string]bool{}
			for i := range guids {
				guids[i] = exptSpec.Hash(fmt.Sprintf("mr-%d-%d", rs, i))
				s := env.nodes[rng.Intn(len(env.nodes))]
				if err := s.Publish(guids[i], nil); err != nil {
					panic(err)
				}
				servers[s.ID().String()] = true
			}
			killed := 0
			want := int(failFrac * float64(n))
			for _, node := range m.Nodes() {
				if killed >= want {
					break
				}
				if servers[node.ID().String()] {
					continue
				}
				m.Fail(node)
				killed++
			}
			var r stats.Ratio
			for _, g := range guids {
				nodes := m.Nodes()
				for probe := 0; probe < 8; probe++ {
					c := nodes[rng.Intn(len(nodes))]
					r.Observe(c.Locate(g, nil).Found)
				}
			}
			t.AddRow(rs, killed, r.Total, r.String())
		}})
	}
	return d
}

// ablationSurrogateDef (A1) compares the two localized routing variants of
// §2.3. One cell per variant.
func ablationSurrogateDef(n int) Def {
	d := Def{
		Name: "AblationSurrogate",
		Table: Table{
			Title:  "Ablation: surrogate-routing variant (§2.3)",
			Header: []string{"variant", "mean lookup hops", "root-balance max/mean"},
		},
	}
	for _, sch := range []core.Scheme{core.SchemeNative, core.SchemePRRLike} {
		sch := sch
		d.Cells = append(d.Cells, Cell{Label: sch.String(), Run: func(seed int64, t *Table) {
			cfg := defaultTapConfig()
			cfg.Surrogate = sch
			env := buildTapestry(ringSpace(n), n, cfg, subSeed(seed, "build"), false)
			rng := subRNG(seed, "keys")
			var hops stats.Summary
			rootLoad := map[string]int{}
			for k := 0; k < 256; k++ {
				key := exptSpec.Random(rng)
				start := env.nodes[rng.Intn(len(env.nodes))]
				root, h, err := start.SurrogateFor(key, nil)
				if err != nil {
					panic(err)
				}
				hops.AddInt(h)
				rootLoad[root.ID().String()]++
			}
			bins := make([]int, 0, len(env.nodes))
			for _, node := range env.nodes {
				bins = append(bins, rootLoad[node.ID().String()])
			}
			t.AddRow(sch.String(), hops.Mean(), stats.LoadBalance(bins))
		}})
	}
	return d
}

// ablationRDef (A2) sweeps the neighbor-set capacity R (fault tolerance vs
// space). One cell per R.
func ablationRDef(n int, rs []int) Def {
	d := Def{
		Name: "AblationR",
		Table: Table{
			Title:  "Ablation: neighbor-set capacity R (space vs fault tolerance)",
			Header: []string{"R", "entries/node", "success after 10% failures (no repair)"},
		},
	}
	for _, r := range rs {
		r := r
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("R=%d", r), Run: func(seed int64, t *Table) {
			cfg := defaultTapConfig()
			cfg.R = r
			env := buildTapestry(ringSpace(n), n, cfg, subSeed(seed, "build"), false)
			m := env.mesh
			var sp stats.Summary
			for _, node := range env.nodes {
				sp.AddInt(node.Table().NeighborCount())
			}
			rng := subRNG(seed, "workload")
			guid := exptSpec.Hash(fmt.Sprintf("abr-%d", r))
			server := env.nodes[rng.Intn(len(env.nodes))]
			if err := server.Publish(guid, nil); err != nil {
				panic(err)
			}
			killed := 0
			for _, node := range m.Nodes() {
				if killed >= n/10 {
					break
				}
				if node.ID().Equal(server.ID()) {
					continue
				}
				m.Fail(node)
				killed++
			}
			var ratio stats.Ratio
			nodes := m.Nodes()
			for probe := 0; probe < 64; probe++ {
				ratio.Observe(nodes[rng.Intn(len(nodes))].Locate(guid, nil).Found)
			}
			t.AddRow(r, sp.Mean(), ratio.String())
		}})
	}
	return d
}

// ablationBaseDef (A3) sweeps the digit radix b: wider tables vs shorter
// paths. One cell per base.
func ablationBaseDef(n int, bases []int) Def {
	d := Def{
		Name: "AblationBase",
		Table: Table{
			Title:  "Ablation: digit base b (table width vs path length)",
			Header: []string{"b", "mean lookup hops", "entries/node"},
		},
	}
	for _, b := range bases {
		b := b
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("b=%d", b), Run: func(seed int64, t *Table) {
			cfg := defaultTapConfig()
			cfg.Spec = ids.Spec{Base: b, Digits: digitsFor(b)}
			env := buildTapestry(ringSpace(n), n, cfg, subSeed(seed, "build"), false)
			rng := subRNG(seed, "workload")
			guid := cfg.Spec.Hash("ab-base")
			if err := env.nodes[0].Publish(guid, nil); err != nil {
				panic(err)
			}
			var hops stats.Summary
			for q := 0; q < 256; q++ {
				res := env.nodes[rng.Intn(len(env.nodes))].Locate(guid, nil)
				if res.Found {
					hops.AddInt(res.Hops)
				}
			}
			var sp stats.Summary
			for _, node := range env.nodes {
				sp.AddInt(node.Table().NeighborCount())
			}
			t.AddRow(b, hops.Mean(), sp.Mean())
		}})
	}
	return d
}

// digitsFor keeps the namespace around 2^32 regardless of base.
func digitsFor(base int) int {
	d := int(math.Ceil(32 / math.Log2(float64(base))))
	if d < 2 {
		d = 2
	}
	return d
}

// metricExpansionDef (E0) reports the measured expansion constants of the
// spaces used across experiments, validating the b > c² precondition of
// Section 3 and showing where general metrics break it. One cell per space.
func metricExpansionDef() Def {
	d := Def{
		Name: "MetricExpansion",
		Table: Table{
			Title:  "Metric-space expansion constants (Eq. 1; Section 3 needs b > c²)",
			Header: []string{"space", "median c", "p90 c", "max c", "b=16 ok?"},
		},
	}
	spaces := []struct {
		label string
		make  func(rng *rand.Rand) metric.Space
	}{
		{"ring", func(*rand.Rand) metric.Space { return metric.NewRing(1024) }},
		{"torus", func(*rand.Rand) metric.Space { return metric.NewTorus2D(32) }},
		{"cloud", func(rng *rand.Rand) metric.Space { return metric.NewUniformCloud(512, rng) }},
		{"graph", func(rng *rand.Rand) metric.Space { return metric.NewRandomGraph(256, 3, 10, rng) }},
		{"transit-stub", func(rng *rand.Rand) metric.Space {
			return metric.NewTransitStub(metric.DefaultTransitStub(), rng)
		}},
	}
	for _, sp := range spaces {
		sp := sp
		d.Cells = append(d.Cells, Cell{Label: sp.label, Run: func(seed int64, t *Table) {
			s := sp.make(subRNG(seed, "space"))
			e := metric.EstimateExpansion(s, 24, 6)
			ok := "yes"
			if e.Median*e.Median >= 16 {
				ok = "no (b must grow)"
			}
			t.AddRow(s.Name(), e.Median, e.P90, e.Max, ok)
		}})
	}
	return d
}
