package expt

import (
	"fmt"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// E-hotspot: the hot-object serving layer under a Zipf query storm.
//
// The paper's Observation 1 says queries for nearby objects are satisfied
// near the client — but for a *popular* object, every query whose path does
// not intersect the publish path early still funnels into the root and its
// last-hop neighbors, recreating in miniature the load concentration the
// centralized-directory strawman is criticized for. This experiment drives
// identically-seeded twin meshes (locate-path cache off vs on) plus the
// directory baseline through the same Zipf(s=1.2) query mix and reports,
// per system: availability, mean hops, mean stretch (distance traveled over
// the distance to the nearest replica), per-node query-load concentration
// (max/mean and p99 of messages delivered per node during the query phase),
// the cache hit rate, and the count of abnormally-terminated queries
// (LocateResult.Exhausted — asserted zero by the acceptance test).
//
// Determinism: each cell is serial and builds every system from the same
// derived sub-seeds, so output is byte-identical for any -workers value and
// the cache-off twin is bit-identical to a build without the serving layer.

// hotspotCacheCap is the per-node LRU capacity of the cache-on twin.
const hotspotCacheCap = 128

// hotspotRun aggregates one system's pass over the query mix.
type hotspotRun struct {
	System    string
	Found     stats.Ratio
	Hops      stats.Summary
	Stretch   stats.Summary
	Load      stats.Summary // messages delivered per overlay node (query phase only)
	HitRate   float64       // cache hits / locates; -1 when not applicable
	Exhausted int
}

// LoadMaxMean is the load-concentration ratio: the busiest node's query-phase
// message load over the mean node's.
func (r hotspotRun) LoadMaxMean() float64 {
	if r.Load.N() == 0 || r.Load.Mean() == 0 {
		return 0
	}
	return r.Load.Max() / r.Load.Mean()
}

// runHotspotCell builds the three systems and drives the shared workload,
// returning runs in presentation order: tapestry cache-off, cache-on,
// directory.
func runHotspotCell(seed int64, n, objects, queries int) []hotspotRun {
	bseed := subSeed(seed, "build")
	space := ringSpace(n)

	cfgOff := defaultTapConfig()
	cfgOn := defaultTapConfig()
	cfgOn.LocateCacheCap = hotspotCacheCap

	tapOff := buildTapestry(space, n, cfgOff, bseed, false)
	tapOn := buildTapestry(space, n, cfgOn, bseed, false)
	// The directory baseline lives at the same client addresses, built
	// through the overlay registry (its server takes the first free point).
	tapAddrs := make([]netsim.Addr, len(tapOff.nodes))
	for i, node := range tapOff.nodes {
		tapAddrs[i] = node.Addr()
	}
	dir := buildOverlay("directory", space, tapAddrs, overlay.Config{Seed: bseed})

	// Shared placement: `objects` objects with two replicas each, published
	// identically in every system.
	prng := subRNG(seed, "place")
	place := workload.UniformPlacement(objects, 2, n, prng)
	guids := make([]ids.ID, objects)
	for i, name := range place.Names {
		guids[i] = exptSpec.Hash(name)
		for _, s := range place.Servers[i] {
			if err := tapOff.nodes[s].Publish(guids[i], nil); err != nil {
				panic(err)
			}
			if err := tapOn.nodes[s].Publish(guids[i], nil); err != nil {
				panic(err)
			}
			dir.publish(s, name)
		}
	}

	mix := workload.ZipfQueries(queries, n, objects, 1.2, subRNG(seed, "queries"))

	// nearestReplica[oi][ci] is too big to precompute; resolve per query.
	nearest := func(ci, oi int) float64 {
		best := -1.0
		for _, s := range place.Servers[oi] {
			d := tapOff.net.Distance(tapOff.nodes[ci].Addr(), tapOff.nodes[s].Addr())
			if best < 0 || d < best {
				best = d
			}
		}
		return best
	}

	runTap := func(label string, env tapEnv) hotspotRun {
		r := hotspotRun{System: label, HitRate: -1}
		env.net.EnableLoadTracking()
		// Load concentration is measured on the LOCATION layer: the final
		// serve RPC delivered to the replica that answered is content traffic
		// every system pays identically (a fetch must reach a replica), so it
		// is subtracted — otherwise the hot object's replicas dominate `max`
		// in every system and mask what routing concentrates.
		served := map[netsim.Addr]int64{}
		for q := range mix.Clients {
			ci, oi := mix.Clients[q], mix.Objects[q]
			var cost netsim.Cost
			res := env.nodes[ci].Locate(guids[oi], &cost)
			r.Found.Observe(res.Found)
			if res.Exhausted {
				r.Exhausted++
			}
			if !res.Found {
				continue
			}
			served[res.ServerAddr]++
			r.Hops.AddInt(res.Hops)
			if direct := nearest(ci, oi); direct > 0 {
				r.Stretch.Add(cost.Distance() / direct)
			}
		}
		for _, node := range env.mesh.Nodes() {
			r.Load.AddInt(int(env.net.LoadAt(node.Addr()) - served[node.Addr()]))
		}
		if hits, misses := env.mesh.LocateCacheStats(); hits+misses > 0 {
			r.HitRate = float64(hits) / float64(hits+misses)
		}
		return r
	}

	runs := []hotspotRun{
		runTap("tapestry", tapOff),
		runTap("tapestry+cache", tapOn),
	}

	// Directory baseline: every query pays a round trip to the one server.
	dr := hotspotRun{System: "directory", HitRate: -1}
	dir.proto.Net().EnableLoadTracking()
	dirServed := map[netsim.Addr]int64{}
	for q := range mix.Clients {
		ci, oi := mix.Clients[q], mix.Objects[q]
		res, cost := dir.locate(ci, place.Names[oi])
		dr.Found.Observe(res.Found)
		if !res.Found {
			continue
		}
		dirServed[res.Server]++
		dr.Hops.AddInt(res.Hops)
		if direct := nearest(ci, oi); direct > 0 {
			dr.Stretch.Add(cost.Distance() / direct)
		}
	}
	for _, a := range tapAddrs {
		dr.Load.AddInt(int(dir.proto.Net().LoadAt(a) - dirServed[a]))
	}
	// The directory server is not a client address; fold its load in
	// explicitly — it is the hotspot the baseline exists to exhibit.
	if server, ok := overlay.DirectoryServer(dir.proto); ok {
		dr.Load.AddInt(int(dir.proto.Net().LoadAt(server)))
	}
	runs = append(runs, dr)
	return runs
}

// hotspotDef (E-hotspot) runs the Zipf hotspot scenario at half and full
// scale. One cell per scale: the three systems of a cell must share one
// derived seed (identical twins), and the load statistics aggregate over a
// whole query phase.
func hotspotDef(n, objects, queries int) Def {
	d := Def{
		Name: "HotObjects",
		Table: Table{
			Title: "E-hotspot: Zipf query storm vs the serving layer (locate-path cache)",
			Note: fmt.Sprintf("zipf s=1.2, 2 replicas/object, cache cap %d; load = location-layer msgs/node (content serve hops excluded)",
				hotspotCacheCap),
			Header: []string{"n", "system", "found", "mean hops", "mean stretch",
				"load max/mean", "load p99", "cache hit %", "exhausted"},
		},
	}
	type cellParams struct{ n, objects, queries int }
	cells := []cellParams{
		{n / 2, objects / 2, queries / 2},
		{n, objects, queries},
	}
	for _, cp := range cells {
		cp := cp
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", cp.n), Run: func(seed int64, t *Table) {
			for _, r := range runHotspotCell(seed, cp.n, cp.objects, cp.queries) {
				hit := "-"
				if r.HitRate >= 0 {
					hit = trimFloat(100 * r.HitRate)
				}
				t.AddRow(cp.n, r.System, r.Found.String(), r.Hops.Mean(), r.Stretch.Mean(),
					r.LoadMaxMean(), r.Load.Quantile(0.99), hit, r.Exhausted)
			}
		}})
	}
	return d
}
