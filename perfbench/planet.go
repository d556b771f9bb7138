package main

import (
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// planetSpec is E-planet at reduced scale: one virtual-time run on a
// netsim.Engine where Poisson churn, staggered per-node maintenance and Zipf
// locates interleave at message granularity, followed on the churned mesh
// by full maintenance epochs and serial direct-call locate batches.
type planetSpec struct {
	mesh     meshSpec
	epochs   int
	queries  int     // locates per epoch in the event run
	epochLen float64 // virtual time per epoch
	service  float64 // receiver occupancy per delivered message (virtual time)
	maintDiv int     // nodes/maintDiv maintenance ops per epoch
	zipf     float64
	tailEps  int // maintenance epochs after the event run
	batches  int // serial locate batches after the maintenance epochs
	batch    int // locates per batch
}

// planetRun is one execution on a fresh fixture.
type planetRun struct {
	engine   netsim.EngineStats
	runDur   time.Duration
	total    int64 // messages charged during the event run
	vlocates int64
	vfound   int64
	vwrong   int64 // named a node other than the publisher
	vunavail int64 // missed or looped while the publisher was alive: churn in flight, not yet repaired
	vmissing int64 // not found because the only replica's host was gone
	vmsgs    int64
	vstretch float64 // sum of per-locate stretch (an exact count)
	vstrS    samples
	vlat     samples
	joins    int64
	jfail    int64
	joinMsgs int64
	departs  int64
	maint    int64
	maintMsg int64

	vcounts map[string]float64 // the event run's exact counts

	batch *churnRun // the post-run direct locate batches
	write writeStats
	mem   memProbe
}

// eventRun schedules and runs the virtual-time phase on fx. All random
// choices are drawn before Run, so the event heap is a function of seed.
func (s planetSpec) eventRun(fx *fixture, seed int64, tr *tracer) *planetRun {
	r := &planetRun{}
	m := fx.mesh
	e := netsim.NewEngine(stats.StreamSeed(seed, "engine", 0))
	e.SetServiceTime(s.service)
	fx.net.AttachEngine(e)

	members := append([]*core.Node(nil), fx.nodes...)
	holderID := make([]ids.ID, len(fx.guids))
	for i, h := range fx.holder {
		holderID[i] = fx.nodes[h].ID()
	}
	crng := streamRNG(seed, "planet-churn", 0)
	wrng := streamRNG(seed, "planet-draws", 0)
	base := s.mesh.nodes
	joinMean := float64(base) / 256
	sched := workload.PoissonChurn(s.epochs, base, base/2, joinMean, joinMean/3, joinMean/3, crng)
	spec := m.Spec()
	nextHost := 0
	drawn := map[ids.ID]bool{}
	maintPos := 0
	ln := tr.lane()
	for ep := range sched {
		t0 := float64(ep) * s.epochLen
		for _, op := range sched[ep] {
			at := t0 + 1 + crng.Float64()*(s.epochLen*0.8)
			if op.Join {
				if nextHost >= len(fx.reserve) {
					continue
				}
				addr := fx.reserve[nextHost]
				nextHost++
				id := spec.Random(crng)
				for drawn[id] || m.NodeByID(id) != nil {
					id = spec.Random(crng)
				}
				drawn[id] = true
				gw, jop := crng.Intn(1<<30), int64(nextHost)
				e.At(at, func() {
					h := ln.open(spJoin, jop, -1)
					n, cost, err := m.Join(members[gw%len(members)], id, addr)
					ln.end(h)
					r.joinMsgs += int64(cost.Messages())
					if err != nil {
						r.jfail++ // a contact died while the join was in flight
						return
					}
					members = append(members, n)
					r.joins++
				})
				continue
			}
			crash, victim := op.Crash, op.Victim
			e.At(at, func() {
				if len(members) <= base/2 {
					return
				}
				vi := victim % len(members)
				v := members[vi]
				members[vi] = members[len(members)-1]
				members = members[:len(members)-1]
				r.departs++
				if crash {
					m.Fail(v)
				} else {
					_ = v.Leave(nil) // a failed leave degrades to a crash
				}
			})
		}
		window := base/s.maintDiv + 1
		for w := 0; w < window; w++ {
			at := t0 + 5 + float64(w)*(s.epochLen*0.8)/float64(window)
			e.At(at, func() {
				n := members[maintPos%len(members)]
				maintPos++
				var mc netsim.Cost
				n.SweepDead(&mc)
				n.RepublishAll(&mc)
				r.maint++
				r.maintMsg += int64(mc.Messages())
			})
		}
		mix := zipfDraws(s.queries, 1<<30, len(fx.guids), s.zipf, wrng)
		for q := 0; q < s.queries; q++ {
			cDraw, obj := mix.Clients[q], mix.Objects[q]
			at := t0 + 0.5 + wrng.Float64()*(s.epochLen*0.9)
			e.At(at, func() {
				client := members[cDraw%len(members)]
				var cost netsim.Cost
				h := ln.open(spVirtualLocate, int64(q), -1)
				res := client.Locate(fx.guids[obj], &cost)
				ln.end(h)
				r.vlocates++
				r.vmsgs += int64(cost.Messages())
				switch {
				case (res.Exhausted || !res.Found) && m.NodeByID(holderID[obj]) != nil:
					r.vunavail++
				case res.Exhausted || !res.Found:
					r.vmissing++
				case !res.Server.Equal(holderID[obj]):
					r.vwrong++
				default:
					r.vfound++
					r.vlat.add(cost.VirtualLatency())
					if rtt := 2 * fx.net.Distance(client.Addr(), res.ServerAddr); rtt > 0 {
						r.vstretch += cost.Distance() / rtt
						r.vstrS.add(cost.Distance() / rtt)
					}
				}
			})
		}
	}
	total0 := fx.net.TotalMessages()
	m0 := readMemProbe()
	h := ln.open(spEventRun, 0, -1)
	t0 := time.Now()
	e.Run()
	r.runDur = time.Since(t0)
	ln.end(h)
	m1 := readMemProbe()
	r.mem = memProbe{m1.mallocs - m0.mallocs, m1.bytes - m0.bytes, m1.gcs - m0.gcs}
	r.total = fx.net.TotalMessages() - total0
	r.engine = e.Stats()
	fx.nodes = members // the post-run phases work on the churned membership
	r.vcounts = r.counts()
	return r
}

// afterRun runs the serial direct-call phases on the churned mesh: full
// maintenance epochs, the first of which repairs what the event run's churn
// broke, each followed by its share of the Zipf locate batches, so the
// batches spread over the whole phase.
func (s planetSpec) afterRun(fx *fixture, r *planetRun, seed int64, tr *tracer, audit bool) {
	ln := tr.lane()
	batch := churnSpec{locates: s.batch, zipf: s.zipf}
	r.batch = &churnRun{}
	var cost netsim.Cost
	rng := streamRNG(seed, "batch-draws", 0)
	for e := 0; e < s.tailEps; e++ {
		fx.maintEpoch(&r.write, ln, int64(e), -1, audit)
		members := fx.mesh.Nodes()
		for b := e * s.batches / s.tailEps; b < (e+1)*s.batches/s.tailEps; b++ {
			batch.batch(r.batch, fx, members, fx.guids, rng, ln, int64(b)<<32, -1, &cost)
		}
	}
}

// counts are the exact figures two same-seed event runs must agree on.
func (r *planetRun) counts() map[string]float64 {
	return map[string]float64{
		"events":       float64(r.engine.Events),
		"delivered":    float64(r.engine.Delivered),
		"queued":       float64(r.engine.Queued),
		"max_wait":     r.engine.MaxWait,
		"clock":        r.engine.Now,
		"total_msgs":   float64(r.total),
		"locates":      float64(r.vlocates),
		"found":        float64(r.vfound),
		"wrong":        float64(r.vwrong),
		"unavailable":  float64(r.vunavail),
		"missing":      float64(r.vmissing),
		"locate_msgs":  float64(r.vmsgs),
		"stretch_sum":  r.vstretch,
		"vlat_sum":     r.vlat.sum(),
		"joins":        float64(r.joins),
		"join_fails":   float64(r.jfail),
		"join_msgs":    float64(r.joinMsgs),
		"departures":   float64(r.departs),
		"maint_ops":    float64(r.maint),
		"maint_msgs":   float64(r.maintMsg),
		"vlat_samples": float64(r.vlat.n()),
	}
}
