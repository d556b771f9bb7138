package main

import (
	"runtime"
	"sync"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/workload"
)

// locateSpec is a closed-loop locate workload over a static fixture.
type locateSpec struct {
	mesh    meshSpec
	zipf    float64 // object popularity exponent; 0 draws objects uniformly
	clients int     // closed-loop client goroutines
	draws   int     // pre-generated draws per client (reused cyclically)
	checkN  int     // serial check-pass locates
	epochs  int     // maintenance epochs after the locate phase
}

// genDraws makes client c's (client node, object) draw sequence.
func (s locateSpec) genDraws(seed int64, c int) workload.QueryMix {
	rng := streamRNG(seed, "draws", c)
	if s.zipf > 0 {
		return zipfDraws(s.draws, s.mesh.nodes, s.mesh.objects, s.zipf, rng)
	}
	return workload.UniformQueries(s.draws, s.mesh.nodes, s.mesh.objects, rng)
}

// expected lists, per object, the ID of the node that published it: with
// one replica and one root (r=1, k=1) every found locate must name it.
func (fx *fixture) expected() []ids.ID {
	out := make([]ids.ID, len(fx.guids))
	for i, h := range fx.holder {
		out[i] = fx.nodes[h].ID()
	}
	return out
}

// window is the length of one closed-loop measurement window: rates and
// latency percentiles are taken per window, and the median window is
// reported.
const window = 500 * time.Millisecond

// loopResult is one closed-loop phase.
type loopResult struct {
	wins      []samples // µs per locate, one sample set per window
	rates     []float64 // locates completed per second, per window
	attempted int64
	failed    int64
	elapsed   time.Duration
	msgs      int64 // network-wide messages charged during the phase
	dist      distanceProbe
	mem       memProbe
}

// closedLoop runs one goroutine per draw sequence for d: each sends its next
// locate only after the previous one returned. Every answer is checked
// against the known placement after its timestamp is taken.
func closedLoop(fx *fixture, mixes []workload.QueryMix, expect []ids.ID, d time.Duration, tr *tracer) loopResult {
	nw := int(d / window)
	if nw < 1 {
		nw = 1
	}
	per := make([]loopResult, len(mixes))
	lanes := make([]*lane, len(mixes))
	for c := range lanes {
		lanes[c] = tr.lane()
		per[c].wins = make([]samples, nw)
	}
	msgs0 := fx.net.TotalMessages()
	d0 := fx.timed.snapshot()
	m0 := readMemProbe()
	var ready, wg sync.WaitGroup
	gate := make(chan struct{})
	var start, deadline time.Time
	for c := range mixes {
		ready.Add(1)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mix, res, ln := mixes[c], &per[c], lanes[c]
			op := int64(c) << 40
			ready.Done()
			<-gate
			for i := 0; ; i++ {
				j := i % len(mix.Objects)
				n, obj := fx.nodes[mix.Clients[j]], mix.Objects[j]
				t0 := time.Now()
				r := n.Locate(fx.guids[obj], nil)
				t1 := time.Now()
				ln.add(spLocate, op+int64(i), -1, t0, t1)
				if w := int(t1.Sub(start) / window); w < nw {
					res.wins[w].add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
				}
				res.attempted++
				if !r.Found || !r.Server.Equal(expect[obj]) {
					res.failed++
				}
				if !t1.Before(deadline) {
					return
				}
			}
		}(c)
	}
	ready.Wait()
	start = time.Now()
	deadline = start.Add(time.Duration(nw) * window)
	close(gate)
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	m1 := readMemProbe()
	out.mem = memProbe{m1.mallocs - m0.mallocs, m1.bytes - m0.bytes, m1.gcs - m0.gcs}
	out.msgs = fx.net.TotalMessages() - msgs0
	out.dist = fx.timed.snapshot().sub(d0)
	out.wins = make([]samples, nw)
	for c := range per {
		for w := range out.wins {
			out.wins[w].merge(&per[c].wins[w])
		}
		out.attempted += per[c].attempted
		out.failed += per[c].failed
	}
	out.rates = make([]float64, nw)
	for w := range out.wins {
		out.rates[w] = float64(out.wins[w].n()) / window.Seconds()
	}
	return out
}

// serialBatch is how many serial locates form one timing batch.
const serialBatch = 2000

// checkResult is the serial pass: the first draws of client 0, located one
// at a time with a per-locate Cost and timed in batches. Its totals are
// exact counts, equal on the traced and untraced fixtures.
type checkResult struct {
	wins                             []samples // µs per locate, one sample set per batch
	locates, found, wrong, exhausted int64
	msgs, hops                       int64
	dist                             float64
	stretchSum                       float64 // exact count
	stretch                          samples // per-locate stretch, for the median
}

func checkPass(fx *fixture, mix workload.QueryMix, expect []ids.ID, n int) *checkResult {
	c := &checkResult{}
	for i := 0; i < n; i++ {
		j := i % len(mix.Objects)
		client, obj := fx.nodes[mix.Clients[j]], mix.Objects[j]
		if i%serialBatch == 0 {
			c.wins = append(c.wins, samples{})
		}
		var cost netsim.Cost
		t0 := time.Now()
		r := client.Locate(fx.guids[obj], &cost)
		c.wins[len(c.wins)-1].add(float64(time.Since(t0).Nanoseconds()) / 1e3)
		m, h, d := cost.Snapshot()
		c.locates++
		c.msgs += int64(m)
		c.hops += int64(h)
		c.dist += d
		if r.Exhausted {
			c.exhausted++
		}
		if !r.Found {
			continue
		}
		c.found++
		if expect != nil && !r.Server.Equal(expect[obj]) {
			c.wrong++
		}
		if rtt := 2 * fx.net.Distance(client.Addr(), r.ServerAddr); rtt > 0 {
			c.stretchSum += d / rtt
			c.stretch.add(d / rtt)
		}
	}
	return c
}

func (c *checkResult) addCounts(counts map[string]float64, prefix string) {
	counts[prefix+"locates"] = float64(c.locates)
	counts[prefix+"found"] = float64(c.found)
	counts[prefix+"wrong"] = float64(c.wrong)
	counts[prefix+"exhausted"] = float64(c.exhausted)
	counts[prefix+"msgs"] = float64(c.msgs)
	counts[prefix+"hops"] = float64(c.hops)
	counts[prefix+"distance"] = c.dist
	counts[prefix+"stretch_sum"] = c.stretchSum
}

// locateRun is what the locate phase of a locate workload measured on one
// fixture; the maintenance epochs run separately, after any replay.
type locateRun struct {
	mixes []workload.QueryMix
	loop  loopResult
	check *checkResult
	links float64
}

// runLocate executes the locate phase on fx: the closed loop for d, then
// the serial check pass.
func (s locateSpec) runLocate(fx *fixture, seed int64, d time.Duration, tr *tracer) *locateRun {
	run := &locateRun{mixes: make([]workload.QueryMix, s.clients)}
	for c := range run.mixes {
		run.mixes[c] = s.genDraws(seed, c)
	}
	expect := fx.expected()
	if fx.timed != nil {
		fx.timed.timing.Store(true)
	}
	run.loop = closedLoop(fx, run.mixes, expect, d, tr)
	if fx.timed != nil {
		fx.timed.timing.Store(false)
	}
	runtime.GC() // the serial pass pays for its own garbage only
	run.check = checkPass(fx, run.mixes[0], expect, s.checkN)
	run.links = linksPerNode(fx.mesh)
	return run
}
