package expt

import (
	"fmt"
	"math"

	"tapestry/internal/netsim"
	"tapestry/internal/overlay"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// E-nines: the availability tier under fire. The replication knobs —
// Observation 2's salted root set r and the k-replica placement — exist to
// buy nines of query success when servers crash, so this experiment measures
// exactly that: a crash-only Poisson churn schedule (victims explicitly MAY
// be replica servers — losing servers is the event replication defends
// against) interleaved with Zipf query storms on the discrete-event virtual
// clock, swept over r ∈ {1,2,4} × k ∈ {1,3} against the Chord and directory
// baselines through the overlay registry.
//
// Per configuration it reports availability as "nines" (-log10 of the
// failure rate; a run with zero failures is floored at the resolution the
// query count can certify, log10(total)) plus the virtual-time latency tail
// (Cost.VirtualSpan percentiles), so the r×k sweep shows both what the
// replication buys and what the extra probes cost.
//
// Determinism: one cell, strictly serial inside; every configuration replays
// the identical scenario from the same labeled sub-seeds and the engine
// resumes one operation at a time, so output is byte-identical for any
// -workers value (pinned by CI).

const (
	ninesEpochLen = 100.0  // virtual-time units per epoch
	ninesService  = 0.0005 // per-message receiver service time (inbound queue)
)

// ninesConfig is one column of the sweep: a registered overlay protocol
// plus, for Tapestry, the availability knobs.
type ninesConfig struct {
	label    string
	protocol string
	roots    int // salted roots r (Tapestry only)
	replicas int // replica servers k (Tapestry only)
}

func ninesConfigs() []ninesConfig {
	var out []ninesConfig
	for _, k := range []int{1, 3} {
		for _, r := range []int{1, 2, 4} {
			out = append(out, ninesConfig{
				label:    fmt.Sprintf("tapestry r=%d k=%d", r, k),
				protocol: "tapestry", roots: r, replicas: k,
			})
		}
	}
	out = append(out,
		ninesConfig{label: "chord", protocol: "chord"},
		ninesConfig{label: "directory", protocol: "directory"},
	)
	return out
}

// ninesRow is one configuration's aggregate, returned for the acceptance
// test that pins nines(r=4,k=3) > nines(r=1,k=1).
type ninesRow struct {
	config           string
	roots, replicas  int
	crashes, skipped int // churn ops applied / declined by the caps mask
	ok, total        int // located / issued queries
	nines            float64
	p50, p95, p99    float64 // virtual-time locate latency
}

// ninesOf converts a success count into nines of availability. A flawless
// run is reported at the resolution the sample size can certify —
// log10(total) — rather than infinity.
func ninesOf(ok, total int) float64 {
	if total == 0 {
		return 0
	}
	if ok == total {
		return math.Log10(float64(total))
	}
	return -math.Log10(1 - float64(ok)/float64(total))
}

// runNinesCell drives every configuration through the shared crash + query
// scenario and appends one row per configuration.
func runNinesCell(seed int64, t *Table, n, objects, epochs, queries int) []ninesRow {
	space := ringSpace(n)
	addrs := pickAddrs(space, n, subRNG(seed, "addrs"))
	place := workload.UniformPlacement(objects, 1, n, subRNG(seed, "place"))
	bseed := subSeed(seed, "build")
	crashMean := float64(n) / 24

	var rows []ninesRow
	for _, cfgN := range ninesConfigs() {
		ocfg := overlay.Config{Seed: bseed, Static: true}
		if cfgN.protocol == "tapestry" {
			cc := defaultTapConfig()
			cc.Seed = bseed
			cc.RootSetSize = cfgN.roots
			cc.Replicas = cfgN.replicas
			// Pointers outlive the run: refresh is load, and the decay this
			// experiment studies is crash loss, not TTL expiry.
			cc.PointerTTL = int64(epochs) + 2
			ocfg.Core = &cc
		}
		env := buildOverlay(cfgN.protocol, space, addrs, ocfg)
		caps := env.proto.Caps()
		for i := range place.Names {
			env.publish(place.Servers[i][0], place.Names[i])
		}

		// Setup ran in direct-call mode (zero virtual time by design); the
		// engine attaches now and everything below is one virtual-time run.
		e := netsim.NewEngine(subSeed(seed, "engine"))
		e.SetServiceTime(ninesService)
		env.proto.Net().AttachEngine(e)

		// Accumulators are written only from engine ops, which run one at a
		// time, so plain fields suffice.
		row := ninesRow{config: cfgN.label, roots: cfgN.roots, replicas: cfgN.replicas}
		var vlat []float64

		departed := make([]bool, n)
		// pickVictim maps a schedule draw onto the base population. Unlike
		// E-faceoff there is NO server exemption: replica loss is the point.
		pickVictim := func(v int) (int, bool) {
			idx := v % n
			for k := 0; k < n; k++ {
				j := (idx + k) % n
				if !departed[j] {
					return j, true
				}
			}
			return 0, false
		}

		// The entire run is scheduled up front; every random decision is
		// drawn here, so the event heap is a pure function of the seed and
		// identical for every configuration.
		crng := subRNG(seed, "churn")
		sched := workload.PoissonChurn(epochs, n, n/2, 0, 0, crashMean, crng)
		wrng := subRNG(seed, "workload")
		for ep := range sched {
			t0 := float64(ep) * ninesEpochLen
			// Crashes land in the first 30% of the epoch; queries fill the
			// back 45%, with one caps-gated maintenance pass between them —
			// repair gets a chance, but late queries still race republish.
			for _, op := range sched[ep] {
				vDraw := op.Victim
				at := t0 + 1 + crng.Float64()*(ninesEpochLen*0.3)
				e.At(at, func() {
					j, ok := pickVictim(vDraw)
					if !ok {
						return
					}
					if !caps.Has(overlay.CapFail) {
						row.skipped++
						return
					}
					if err := env.proto.Fail(env.nodes[j]); err != nil {
						panic(fmt.Sprintf("nines: %s fail: %v", cfgN.label, err))
					}
					departed[j] = true
					row.crashes++
				})
			}
			if caps.Has(overlay.CapMaintain) {
				e.At(t0+ninesEpochLen*0.45, func() {
					if _, err := env.proto.Maintain(); err != nil {
						panic(fmt.Sprintf("nines: %s maintain: %v", cfgN.label, err))
					}
				})
			}
			mix := workload.ZipfQueries(queries, 1<<30, objects, 1.2, wrng)
			for q := 0; q < queries; q++ {
				cDraw := mix.Clients[q]
				key := place.Names[mix.Objects[q]]
				at := t0 + ninesEpochLen*0.5 + wrng.Float64()*(ninesEpochLen*0.45)
				e.At(at, func() {
					members := env.proto.Handles()
					res, cost := env.proto.Locate(members[cDraw%len(members)], key)
					row.total++
					if res.Found {
						row.ok++
						vlat = append(vlat, cost.VirtualLatency())
					}
				})
			}
		}
		e.Run()

		row.nines = ninesOf(row.ok, row.total)
		row.p50, row.p95, row.p99 = quantiles3(vlat)
		rows = append(rows, row)
		t.AddRow(n, row.config, row.roots, row.replicas, row.crashes, row.skipped,
			fmt.Sprintf("%d/%d", row.ok, row.total), row.nines, row.p50, row.p95, row.p99)
	}
	return rows
}

// quantiles3 returns the 50th/95th/99th percentiles of the sample.
func quantiles3(xs []float64) (p50, p95, p99 float64) {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	if s.N() == 0 {
		return 0, 0, 0
	}
	return s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99)
}

// ninesDef (E-nines) sweeps the availability knobs under identical crash
// churn. One cell: the configurations must share one derived seed (identical
// scenario), so the configuration loop is serial inside it.
func ninesDef(n, objects, epochs, queries int) Def {
	d := Def{
		Name: "Nines",
		Table: Table{
			Title: "E-nines: availability (nines of query success) under crash churn, r x k sweep vs baselines",
			Note: "crash-only Poisson churn with replica servers eligible as victims; zipf s=1.2 query storms " +
				"on the virtual clock; nines = -log10(failure rate), capped at log10(queries) when flawless",
			Header: []string{"n", "config", "roots", "replicas", "crashes", "skipped",
				"located", "nines", "vlat p50", "vlat p95", "vlat p99"},
		},
	}
	d.Cells = append(d.Cells, Cell{Label: fmt.Sprintf("n=%d", n), Run: func(seed int64, t *Table) {
		runNinesCell(seed, t, n, objects, epochs, queries)
	}})
	return d
}
