package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// churnSpec is the serial churn-and-publish workload: epochs of crashes,
// joins, replicated publishes, a maintenance epoch and a Zipf locate batch
// on a multi-root, multi-replica mesh.
type churnSpec struct {
	mesh      meshSpec
	epochs    int
	crashes   int // per epoch
	joins     int // per epoch
	publishes int // per epoch
	locates   int // per epoch
	zipf      float64
}

// churnRun is one execution of the epoch sequence on a fresh fixture.
type churnRun struct {
	write    writeStats
	wins     []samples // µs per locate, one sample set per batch
	rates    []float64 // locates per second of locate time, per batch
	locates  int64
	failed   int64 // found, but named a node that does not serve the object
	unavail  int64 // missed or looped while a live replica existed
	missing  int64 // not found because no live replica was left (correct)
	msgs     int64 // messages charged by the batch locates
	hops     int64
	dist     distanceProbe
	stretch  float64 // sum of per-locate stretch (an exact count)
	strS     samples // per-locate stretch, for the median
	crashes  int64
	maintPer []int64 // maintenance messages per epoch
	total    int64   // network-wide messages over the run
	mem      memProbe
	wall     time.Duration // the whole epoch sequence
	guids    []ids.ID      // every object published by the end of the run
}

// servingSets maps each object to the live nodes publishing it: the ground
// truth a locate batch is checked against, taken before the batch so the
// check itself costs a map lookup.
func servingSets(m *core.Mesh) map[ids.ID][]ids.ID {
	out := map[ids.ID][]ids.ID{}
	for _, n := range m.Nodes() {
		for _, g := range n.PublishedObjects() {
			out[g] = append(out[g], n.ID())
		}
	}
	return out
}

func contains(list []ids.ID, id ids.ID) bool {
	for _, x := range list {
		if x.Equal(id) {
			return true
		}
	}
	return false
}

// run executes the epochs on fx. Every random choice comes from seed, and
// the run is serial, so every count repeats exactly.
func (s churnSpec) run(fx *fixture, seed int64, tr *tracer, audit bool) (*churnRun, error) {
	rng := streamRNG(seed, "churn", 0)
	qrng := streamRNG(seed, "churn-draws", 0)
	ln := tr.lane()
	r := &churnRun{}
	members := append([]*core.Node(nil), fx.nodes...)
	guids := append([]ids.ID(nil), fx.guids...)
	next := 0 // next reserve address
	total0 := fx.net.TotalMessages()
	m0 := readMemProbe()
	var cost netsim.Cost
	start := time.Now()
	for e := 0; e < s.epochs; e++ {
		eh := ln.open(spEpoch, int64(e), -1)
		op := int64(e) << 32
		for i := 0; i < s.crashes && len(members) > 1; i++ {
			vi := rng.Intn(len(members))
			victim := members[vi]
			members[vi] = members[len(members)-1]
			members = members[:len(members)-1]
			h := ln.open(spFail, op, eh.idx)
			fx.mesh.Fail(victim)
			ln.end(h)
			r.crashes++
		}
		for i := 0; i < s.joins; i++ {
			if next >= len(fx.reserve) {
				return nil, fmt.Errorf("epoch %d: out of reserve addresses", e)
			}
			n, err := fx.join(members, fx.reserve[next], rng, &r.write, ln, op+int64(i), eh.idx)
			next++
			if err != nil {
				return nil, fmt.Errorf("epoch %d: %w", e, err)
			}
			members = append(members, n)
		}
		for i := 0; i < s.publishes; i++ {
			g := fx.newGUID(fmt.Sprintf("perfbench/%d/churn-%d-%d", seed, e, i))
			if err := fx.publishReplicated(members[rng.Intn(len(members))], g, &r.write, ln, op+int64(i), eh.idx); err != nil {
				return nil, fmt.Errorf("epoch %d: %w", e, err)
			}
			guids = append(guids, g)
		}
		before := r.write.sweepMsgs + r.write.repubMsgs
		fx.maintEpoch(&r.write, ln, op, eh.idx, audit)
		r.maintPer = append(r.maintPer, r.write.sweepMsgs+r.write.repubMsgs-before)

		s.batch(r, fx, members, guids, qrng, ln, op, eh.idx, &cost)
		ln.end(eh)
	}
	r.wall = time.Since(start)
	m1 := readMemProbe()
	r.mem = memProbe{m1.mallocs - m0.mallocs, m1.bytes - m0.bytes, m1.gcs - m0.gcs}
	r.total = fx.net.TotalMessages() - total0
	r.guids = guids
	return r, nil
}

// merge pools o's samples and totals into r (two same-seed runs).
func (r *churnRun) merge(o *churnRun) {
	r.write.merge(&o.write)
	r.wins = append(r.wins, o.wins...)
	r.rates = append(r.rates, o.rates...)
	r.locates += o.locates
	r.failed += o.failed
	r.unavail += o.unavail
	r.missing += o.missing
	r.msgs += o.msgs
	r.hops += o.hops
	r.stretch += o.stretch
	r.strS.merge(&o.strS)
}

// batch runs s.locates serial Zipf locates from live members, checking
// every answer against the live serving sets taken just before the batch.
// A found locate that names a node not serving the object fails. A miss or
// a loop while a live replica exists is counted as unavailable: routing
// tables keep changing under the batch's own dead-link repairs, and the
// pointers along a changed path return only with the next republish. A miss
// with no live replica left is the correct answer.
func (s churnSpec) batch(r *churnRun, fx *fixture, members []*core.Node, guids []ids.ID, qrng *rand.Rand, ln *lane, op int64, parent int32, cost *netsim.Cost) {
	live := servingSets(fx.mesh)
	// Collect the garbage the writes before the batch left behind, so the
	// batch pays for its own allocations only.
	runtime.GC()
	mix := zipfDraws(s.locates, len(members), len(guids), s.zipf, qrng)
	if fx.timed != nil {
		fx.timed.timing.Store(true)
	}
	d0 := fx.timed.snapshot()
	var lat samples
	var busy time.Duration
	for q := 0; q < s.locates; q++ {
		client, g := members[mix.Clients[q]], guids[mix.Objects[q]]
		m0, h0, dist0 := cost.Snapshot()
		t0 := time.Now()
		res := client.Locate(g, cost)
		t1 := time.Now()
		ln.add(spLocate, op+int64(q), parent, t0, t1)
		lat.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
		busy += t1.Sub(t0)
		m1, h1, dist1 := cost.Snapshot()
		r.msgs += int64(m1 - m0)
		r.hops += int64(h1 - h0)
		r.locates++
		switch {
		case (res.Exhausted || !res.Found) && len(live[g]) > 0:
			r.unavail++
		case res.Exhausted || !res.Found:
			r.missing++
		case !contains(live[g], res.Server):
			r.failed++
		default:
			if rtt := 2 * fx.net.Distance(client.Addr(), res.ServerAddr); rtt > 0 {
				r.stretch += (dist1 - dist0) / rtt
				r.strS.add((dist1 - dist0) / rtt)
			}
		}
	}
	// A serial client's rate: locates per second of locate time, leaving
	// out the benchmark's own checking between calls.
	r.rates = append(r.rates, float64(s.locates)/busy.Seconds())
	r.wins = append(r.wins, lat)
	r.dist = r.dist.add(fx.timed.snapshot().sub(d0))
	if fx.timed != nil {
		fx.timed.timing.Store(false)
	}
}

// locateBatches runs n checked locate batches over the fixture's current
// members and objects (planet-virtual's post-run phase).
func (s churnSpec) locateBatches(fx *fixture, n int, seed int64, tr *tracer) *churnRun {
	r := &churnRun{}
	var cost netsim.Cost
	ln, rng, members := tr.lane(), streamRNG(seed, "batch-draws", 0), fx.mesh.Nodes()
	for b := 0; b < n; b++ {
		s.batch(r, fx, members, fx.guids, rng, ln, int64(b)<<32, -1, &cost)
	}
	return r
}

// counts are the exact figures two same-seed runs must agree on.
func (r *churnRun) counts() map[string]float64 {
	c := map[string]float64{
		"total_msgs":   float64(r.total),
		"locates":      float64(r.locates),
		"failed":       float64(r.failed),
		"unavailable":  float64(r.unavail),
		"missing":      float64(r.missing),
		"locate_msgs":  float64(r.msgs),
		"locate_hops":  float64(r.hops),
		"stretch_sum":  r.stretch,
		"crashes":      float64(r.crashes),
		"join_msgs":    float64(r.write.joinMsgs),
		"publish_msgs": float64(r.write.pubMsgs),
		"placed":       float64(r.write.placed),
		"sweep_msgs":   float64(r.write.sweepMsgs),
		"repub_msgs":   float64(r.write.repubMsgs),
		"removed":      float64(r.write.removed),
		"dead_probes":  float64(r.write.deadProbes),
	}
	for e, m := range r.maintPer {
		c[fmt.Sprintf("maint_msgs_epoch_%02d", e)] = float64(m)
	}
	return c
}
