package expt

import (
	"fmt"
	"runtime"
	"sync"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// scaleChurnDef (E-scale) is the substrate-scale churn scenario: a
// transit-stub network of tens of thousands of points — representable
// because the transit-stub metric is held in closed form instead of as an
// n×n matrix — hosting an overlay that is grown statically, then driven
// through epochs of Poisson join/leave/crash churn with a Zipf query mix
// measured after each epoch. Per epoch it reports the live population, the
// churn applied, and availability / mean hops / mean stretch over the query
// mix.
//
// Two cells (quarter scale and full scale) so the runner's shared pool has
// something to overlap; each cell is fully deterministic: churn and repair
// run serially, and the query phase — though it fans out across an internal
// worker pool, exercising the lock-free netsim hot path — only ever reads
// mesh state (the mesh is swept and republished first), with per-query
// results merged in query order. Output is therefore byte-identical for any
// -workers value.
func scaleChurnDef(points, nodes, epochs, queries int) Def {
	d := Def{
		Name: "ScaleChurn",
		Table: Table{
			Title: "E-scale: churn at substrate scale (transit-stub, on-demand metric)",
			Note:  "per-epoch availability/hops/stretch under Poisson join/leave/crash churn",
			Header: []string{"points", "epoch", "live", "joins", "leaves", "crashes",
				"objects", "avail", "mean hops", "mean stretch"},
		},
	}
	type cellParams struct{ points, nodes, queries int }
	cells := []cellParams{
		{points / 4, nodes / 4, queries / 2},
		{points, nodes, queries},
	}
	for _, cp := range cells {
		cp := cp
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("points=%d", cp.points), Run: func(seed int64, t *Table) {
			runScaleCell(seed, t, cp.points, cp.nodes, epochs, cp.queries)
		}})
	}
	return d
}

func runScaleCell(seed int64, t *Table, points, baseNodes, epochs, queries int) {
	rng := subRNG(seed, "topology")
	space := metric.NewTransitStub(metric.ScaledTransitStub(points), rng)
	labels := metric.Regions(space)

	// Overlay hosts live on stub points only; the shuffled order doubles as
	// the join queue for churn arrivals.
	var hosts []netsim.Addr
	for a := 0; a < space.Size(); a++ {
		if labels[a] >= 0 {
			hosts = append(hosts, netsim.Addr(a))
		}
	}
	if baseNodes > len(hosts)/2 {
		baseNodes = len(hosts) / 2
	}
	if baseNodes < 8 {
		baseNodes = 8
	}
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })

	net := netsim.New(space)
	cfg := defaultTapConfig()
	// One maintenance pass per epoch must fully retire pointers to departed
	// servers (see the determinism note on scaleChurnDef).
	cfg.PointerTTL = 1
	brng := subRNG(seed, "build")
	parts := core.StaticParticipants(cfg.Spec, hosts[:baseNodes], brng)
	m, err := core.BuildStatic(net, cfg, parts)
	if err != nil {
		panic(err)
	}
	nextHost := baseNodes

	// Publish the base object population from random servers. Objects whose
	// server later leaves or crashes are simply lost (one replica each), so
	// availability genuinely decays with churn until joins replenish the mix.
	wrng := subRNG(seed, "workload")
	var objects []ids.ID
	publishFrom := func(n *core.Node, tag string) {
		guid := cfg.Spec.Hash(fmt.Sprintf("scale-%s", tag))
		if err := n.Publish(guid, nil); err != nil {
			panic(err)
		}
		objects = append(objects, guid)
	}
	live := m.Nodes()
	for i := 0; i < baseNodes/2; i++ {
		publishFrom(live[wrng.Intn(len(live))], fmt.Sprintf("base-%d", i))
	}

	crng := subRNG(seed, "churn")
	joinMean := float64(baseNodes) / 48
	sched := workload.PoissonChurn(epochs, baseNodes, baseNodes/2,
		joinMean, joinMean/3, joinMean/3, crng)

	joinSeq := 0
	for epoch := 0; epoch < epochs; epoch++ {
		joins, leaves, crashes := 0, 0, 0
		for _, op := range sched[epoch] {
			switch {
			case op.Join:
				if nextHost >= len(hosts) {
					continue
				}
				nodes := m.Nodes()
				gw := nodes[crng.Intn(len(nodes))]
				id := cfg.Spec.Random(crng)
				for m.NodeByID(id) != nil {
					id = cfg.Spec.Random(crng)
				}
				n, _, err := m.Join(gw, id, hosts[nextHost])
				if err != nil {
					panic(err)
				}
				nextHost++
				joins++
				joinSeq++
				publishFrom(n, fmt.Sprintf("join-%d", joinSeq))
			default:
				nodes := m.Nodes()
				if len(nodes) <= baseNodes/2 {
					continue // execution-time population floor
				}
				victim := nodes[op.Victim%len(nodes)]
				if op.Crash {
					m.Fail(victim)
					crashes++
				} else {
					if err := victim.Leave(nil); err != nil {
						panic(err)
					}
					leaves++
				}
			}
		}

		// Deterministic stabilisation: drop dead links, then expire every
		// stale pointer (TTL 1 retires anything not re-deposited this epoch)
		// and republish from the live servers. After this the query phase
		// cannot observe (or repair) stale state, which is what makes its
		// internal concurrency output-deterministic.
		for _, n := range m.Nodes() {
			n.SweepDead(nil)
		}
		m.RunMaintenanceEpoch(nil)

		nodes := m.Nodes()
		mix := workload.ZipfQueries(queries, len(nodes), len(objects), 1.2, wrng)
		type qres struct {
			found   bool
			hops    int
			stretch float64
		}
		results := make([]qres, queries)
		workers := runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for q := w; q < queries; q += workers {
					client := nodes[mix.Clients[q]]
					var cost netsim.Cost
					res := client.Locate(objects[mix.Objects[q]], &cost)
					if !res.Found {
						continue
					}
					r := qres{found: true, hops: res.Hops}
					if direct := space.Distance(int(client.Addr()), int(res.ServerAddr)); direct > 0 {
						r.stretch = cost.Distance() / direct
					}
					results[q] = r
				}
			}(w)
		}
		wg.Wait()

		var avail stats.Ratio
		var hops, stretch stats.Summary
		for _, r := range results {
			avail.Observe(r.found)
			if !r.found {
				continue
			}
			hops.AddInt(r.hops)
			if r.stretch > 0 {
				stretch.Add(r.stretch)
			}
		}
		t.AddRow(space.Size(), epoch+1, len(nodes), joins, leaves, crashes,
			len(objects), avail.String(), hops.Mean(), stretch.Mean())
	}
}
