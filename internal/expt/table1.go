package expt

import (
	"fmt"
	"math"
	"math/rand"

	"tapestry/internal/ids"
	"tapestry/internal/overlay"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// The Table 1 sweeps are protocol-parameterized: every system is built
// through the overlay.Builder registry over the SAME addresses with the SAME
// seed, so node index i refers to one location across all of them, and the
// shared workload (placement + query mix) is applied verbatim to each.

// table1Systems is the Table 1 comparison set in presentation order.
var table1Systems = []string{"tapestry", "chord", "pastry", "can", "directory"}

// table1HopsDef (E1) regenerates the "Hops" column of Table 1 empirically:
// median and mean application-level hops per successful object location, per
// system, across network sizes. Expected shape: Tapestry, Chord and Pastry
// grow as O(log n); CAN (r=2) grows as O(n^{1/2}); the central directory is
// constant (2). One cell per network size.
func table1HopsDef(sizes []int, queries int) Def {
	d := Def{
		Name: "Table1Hops",
		Table: Table{
			Title:  "Table 1 / Hops column — application-level hops per lookup",
			Note:   "expect Θ(log n) for Tapestry/Chord/Pastry, Θ(√n) for CAN (r=2), 2 for central directory",
			Header: []string{"n", "tapestry p50", "tapestry mean", "chord mean", "pastry mean", "can mean", "directory", "log2(n)"},
		},
	}
	for _, n := range sizes {
		n := n
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
			rng := subRNG(seed, "workload")
			bseed := subSeed(seed, "build")
			space := ringSpace(n)
			addrs := pickAddrs(space, n, rand.New(rand.NewSource(bseed)))
			place := workload.UniformPlacement(64, 1, n, rng)
			mix := workload.UniformQueries(queries, n, len(place.Names), rng)

			hops := make(map[string]*stats.Summary, len(table1Systems))
			for _, sys := range table1Systems {
				env := buildOverlay(sys, space, addrs, overlay.Config{Seed: bseed, Static: true})
				for i := range place.Names {
					env.publish(place.Servers[i][0], place.Names[i])
				}
				s := &stats.Summary{}
				for i := range mix.Clients {
					if res, _ := env.locate(mix.Clients[i], place.Names[mix.Objects[i]]); res.Found {
						s.AddInt(res.Hops)
					}
				}
				hops[sys] = s
			}
			t.AddRow(n, hops["tapestry"].Median(), hops["tapestry"].Mean(),
				hops["chord"].Mean(), hops["pastry"].Mean(), hops["can"].Mean(),
				hops["directory"].Mean(), math.Log2(float64(n)))
		}})
	}
	return d
}

// publishTapestry publishes every object of the placement on all its
// servers and returns the GUIDs.
func publishTapestry(env tapEnv, place workload.Placement) []ids.ID {
	guids := make([]ids.ID, len(place.Names))
	for i, name := range place.Names {
		guids[i] = exptSpec.Hash(name)
		for _, s := range place.Servers[i] {
			if err := env.nodes[s].Publish(guids[i], nil); err != nil {
				panic(err)
			}
		}
	}
	return guids
}

// table1SpaceDef (E2) regenerates the "Space" column: per-node routing-table
// entries via the uniform TableSize accessor. Expected shape:
// Tapestry/Pastry/Chord hold Θ(log n) entries; CAN holds Θ(r). One cell per
// network size.
func table1SpaceDef(sizes []int) Def {
	d := Def{
		Name: "Table1Space",
		Table: Table{
			Title:  "Table 1 / Space column — routing entries per node",
			Note:   "Tapestry counts per-level neighbor links (R per slot); expect Θ(log n) except CAN's Θ(r)",
			Header: []string{"n", "tapestry mean", "tapestry max", "chord mean", "pastry mean", "can mean", "log2(n)"},
		},
	}
	for _, n := range sizes {
		n := n
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
			bseed := subSeed(seed, "build")
			space := ringSpace(n)
			addrs := pickAddrs(space, n, rand.New(rand.NewSource(bseed)))
			size := make(map[string]*stats.Summary, 4)
			for _, sys := range []string{"tapestry", "chord", "pastry", "can"} {
				env := buildOverlay(sys, space, addrs, overlay.Config{Seed: bseed, Static: true})
				s := &stats.Summary{}
				for _, h := range env.nodes {
					s.AddInt(env.proto.TableSize(h))
				}
				size[sys] = s
			}
			t.AddRow(n, size["tapestry"].Mean(), size["tapestry"].Max(), size["chord"].Mean(),
				size["pastry"].Mean(), size["can"].Mean(), math.Log2(float64(n)))
		}})
	}
	return d
}

// table1InsertCostDef (E3) regenerates the "Insert Cost" column: messages
// per node insertion, measured over the second half of a growth run (so the
// network is at representative size). Expected shape: Θ(log² n) for Tapestry
// and Chord; CAN's O(r·n^{1/r}) routing plus O(1) zone work. One cell per
// network size — by far the slowest sweep, so this is where the worker pool
// pays off most.
func table1InsertCostDef(sizes []int) Def {
	d := Def{
		Name: "Table1InsertCost",
		Table: Table{
			Title:  "Table 1 / Insert Cost column — messages per node insertion",
			Note:   "mean over the last n/2 joins; expect Θ(log² n) for Tapestry and Chord",
			Header: []string{"n", "tapestry", "chord", "can", "log2^2(n)"},
		},
	}
	for _, n := range sizes {
		n := n
		d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
			bseed := subSeed(seed, "build")
			space := ringSpace(n)
			addrs := pickAddrs(space, n, rand.New(rand.NewSource(bseed)))
			mean := func(costs []int) float64 {
				var s stats.Summary
				for _, c := range costs[len(costs)/2:] {
					s.AddInt(c)
				}
				return s.Mean()
			}
			cost := make(map[string]float64, 3)
			for _, sys := range []string{"tapestry", "chord", "can"} {
				env := buildOverlay(sys, space, addrs, overlay.Config{Seed: bseed}) // dynamic joins
				cost[sys] = mean(env.joinMsgs)
			}
			l := math.Log2(float64(n))
			t.AddRow(n, cost["tapestry"], cost["chord"], cost["can"], l*l)
		}})
	}
	return d
}

// table1BalanceDef (E4) regenerates the "Balanced?" column: the skew of
// directory load. For Tapestry we report the max/mean ratio of object
// pointers and of root assignments across nodes; for the central directory
// the answer is structurally "no" (one node absorbs everything).
func table1BalanceDef(n, objects int) Def {
	d := Def{
		Name: "Table1Balance",
		Table: Table{
			Title:  "Table 1 / Balanced? column — directory-load skew (max/mean)",
			Note:   "1.0 is perfect balance; the central directory concentrates 100% of load on one node",
			Header: []string{"system", "metric", "max/mean", "verdict"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		rng := subRNG(seed, "workload")
		tap := buildTapestry(ringSpace(n), n, defaultTapConfig(), subSeed(seed, "build"), false)
		place := workload.UniformPlacement(objects, 1, n, rng)
		publishTapestry(tap, place)
		ptrs := make([]int, len(tap.nodes))
		roots := make([]int, len(tap.nodes))
		for i, node := range tap.nodes {
			ptrs[i] = node.PointerCount()
			roots[i] = node.RootCount()
		}
		ptrSkew := stats.LoadBalance(ptrs)
		rootSkew := stats.LoadBalance(roots)
		t.AddRow("tapestry", fmt.Sprintf("object pointers (%d objects, n=%d)", objects, n), ptrSkew, verdict(ptrSkew))
		t.AddRow("tapestry", "root assignments", rootSkew, verdict(rootSkew))
		// Central directory: all load on one server by construction.
		t.AddRow("central directory", "directory entries", float64(n), "no (single point)")
	}})
	return d
}

func verdict(skew float64) string {
	if skew < 20 {
		return "yes"
	}
	return "no"
}
