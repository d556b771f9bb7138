package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
)

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds int
	trace   bool
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

// workloadDef is one named workload.
type workloadDef struct {
	name, why string
	run       func(o options) (*report, *tracer, error)
}

// setupRepeats is how many times a run builds its fixture; setup_s is the
// median.
const setupRepeats = 3

// replayDraws bounds the draws the per-layer replay uses.
const replayDraws = 4000

func transitStub(points int) func(*rand.Rand) metric.Space {
	return func(rng *rand.Rand) metric.Space {
		return metric.NewTransitStub(metric.ScaledTransitStub(points), rng)
	}
}

func uniformCloud(points int) func(*rand.Rand) metric.Space {
	return func(rng *rand.Rand) metric.Space { return metric.NewUniformCloud(points, rng) }
}

// baseConfig is the paper-scale default configuration on an explicit
// transport (so no environment variable can change the backend).
func baseConfig(t core.TransportKind, roots, replicas int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Transport = t
	cfg.RootSetSize = roots
	cfg.Replicas = replicas
	return cfg
}

func zipfSpec() locateSpec {
	return locateSpec{
		mesh: meshSpec{
			space: transitStub(4096), nodes: 1024, objects: 4096,
			cfg: baseConfig(core.TransportDirect, 1, 1),
		},
		zipf: 1.2, clients: 2, draws: 1 << 18, checkN: 20000, epochs: 3,
	}
}

func tcpSpec() locateSpec {
	return locateSpec{
		mesh: meshSpec{
			space: transitStub(1024), nodes: 256, objects: 1024,
			cfg: baseConfig(core.TransportTCP, 1, 1),
		},
		clients: 2, draws: 1 << 16, checkN: 5000, epochs: 3,
	}
}

func churnSpecFor(seconds int) churnSpec {
	return churnSpec{
		mesh: meshSpec{
			space: transitStub(4096), nodes: 1024, reserve: 512, objects: 512,
			cfg: baseConfig(core.TransportDirect, 4, 3), replicated: true,
		},
		epochs: max(5, seconds/2), crashes: 8, joins: 10, publishes: 100, locates: 10000, zipf: 1.2,
	}
}

func planetSpecFor(seconds int) planetSpec {
	cfg := baseConfig(core.TransportDirect, 1, 1)
	cfg.Spec = ids.Spec{Base: 16, Digits: 7}
	epochs := max(2, seconds*6/10)
	cfg.PointerTTL = int64(epochs) + 8 // pointers outlive the run; refresh is load, not correctness
	const nodes = 5000
	return planetSpec{
		mesh: meshSpec{
			space: uniformCloud(nodes + nodes/4 + 64), nodes: nodes, reserve: nodes/4 + 64, objects: 5000,
			cfg: cfg, sample: 8,
		},
		epochs: epochs, queries: 2000, epochLen: 100, service: 0.0005, maintDiv: 64, zipf: 1.2,
		tailEps: 3, batches: 12, batch: 10000,
	}
}

var workloads = []workloadDef{
	{
		name: "locate-zipf",
		why:  "closed-loop Zipf locates at C=2 on a static 1024-node transit-stub mesh over a GraphSpace row cache: the metric, netsim, route and core locate layers, no wire",
		run:  func(o options) (*report, *tracer, error) { return runLocateWorkload(zipfSpec(), o) },
	},
	{
		name: "locate-tcp",
		why:  "closed-loop uniform locates at C=2 on a 256-node mesh whose every hop crosses the loopback TCP transport: the wire codec and sockets, with a nearly free dense metric",
		run:  func(o options) (*report, *tracer, error) { return runLocateWorkload(tcpSpec(), o) },
	},
	{
		name: "churn-publish",
		why:  "serial epochs of crashes, joins, replicated publishes (r=4, k=3), sweep plus republish and Zipf locates: the write, repair and maintenance paths next to reads",
		run:  func(o options) (*report, *tracer, error) { return runChurnWorkload(churnSpecFor(o.seconds), o) },
	},
	{
		name: "planet-virtual",
		why:  "E-planet at reduced scale on one netsim.Engine clock (5000 nodes, uniform cloud, Poisson churn, staggered maintenance, Zipf locates): the event engine, with no row cache",
		run:  func(o options) (*report, *tracer, error) { return runPlanetWorkload(planetSpecFor(o.seconds), o) },
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// buildKept builds the fixture discard+1 times from the same seed, keeping
// only the last, and appends every set-up time to setups.
func buildKept(spec meshSpec, seed int64, discard int, setups *[]float64) (*fixture, error) {
	var fx *fixture
	for i := 0; i <= discard; i++ {
		fx.close()
		fx = nil
		var err error
		if fx, err = buildFixture(spec, seed, false); err != nil {
			return nil, err
		}
		*setups = append(*setups, fx.setupS)
	}
	return fx, nil
}

// setSetup records set-up time as the median over the run's builds.
func (r *report) setSetup(setups []float64) {
	r.e2e["setup_s"] = median(setups)
	r.n["setup_s"] = len(setups)
}

// setWrites fills the write-side figures: maintenance traffic per epoch
// (gated) and the publish, join and maintenance-epoch timings (printed).
func (r *report) setWrites(pub *samples, w *writeStats) {
	r.infoTiming("publish_p50_ms", pub, 0.5)
	r.infoTiming("publish_p99_ms", pub, 0.99)
	r.infoTiming("join_p50_ms", &w.join, 0.5)
	r.infoTiming("join_p90_ms", &w.join, 0.9)
	if n := w.epoch.n(); n > 0 {
		r.info["maint_epoch_ms"] = median(w.epoch.xs)
		r.n["maint_epoch_ms"] = n
		r.e2e["maint_msgs_per_epoch"] = float64(w.sweepMsgs+w.repubMsgs) / float64(n)
	}
	r.attempted += int64(w.join.n()+w.epoch.n()) + w.pubCalls
	r.failed += w.joinErrs + w.pubErrs
}

// setLocates fills the locate metrics. Rates and latency percentiles are
// medians over the windows (or batches) of the timed locates, for the
// closed loop (or the batches) and for the serial pass. Messages per locate
// is an exact mean, stretch the median of the per-locate stretches (a mean
// would be ruled by the few clients sitting next to their replica).
func (r *report) setLocates(wins []samples, rates []float64, serial []samples, msgsPerLocate float64, stretch *samples) {
	count := func(ws []samples) int {
		n := 0
		for i := range ws {
			n += ws[i].n()
		}
		return n
	}
	set := func(name string, ws []samples, q float64) {
		if v, err := windowQuantile(ws, q); err == nil {
			r.info[name] = v
			r.n[name] = count(ws)
		} else if !r.traced {
			r.problem("%s: %v", name, err)
		}
	}
	r.info["locate_per_s"] = median(rates)
	r.n["locate_per_s"] = count(wins)
	set("locate_p50_us", wins, 0.5)
	set("locate_p99_us", wins, 0.99)
	set("serial_locate_p50_us", serial, 0.5)
	r.e2e["msgs_per_locate"] = msgsPerLocate
	if v, err := stretch.quantile(0.5); err == nil {
		r.e2e["locate_stretch"] = v
	}
}

// locateCounts are the exact figures of a locate workload run.
func locateCounts(fx *fixture, run *locateRun, w *writeStats) map[string]float64 {
	c := map[string]float64{
		"setup_publish_msgs": float64(fx.pubCost.Messages()),
		"loop_failed":        float64(run.loop.failed),
		"sweep_msgs":         float64(w.sweepMsgs),
		"republish_msgs":     float64(w.repubMsgs),
		"links_removed":      float64(w.removed),
		"sweep_probes":       float64(w.probes),
		"dead_probes":        float64(w.deadProbes),
	}
	run.check.addCounts(c, "check_")
	return c
}

func runLocateWorkload(s locateSpec, o options) (*report, *tracer, error) {
	r := newReport()
	r.traced = o.trace
	if !o.trace {
		var setups []float64
		fx, err := buildKept(s.mesh, o.seed, setupRepeats-1, &setups)
		if err != nil {
			return nil, nil, err
		}
		defer fx.close()
		r.setSetup(setups)
		r.e2e["heap_mb"] = heapMB()
		run := s.runLocate(fx, o.seed, o.duration(), nil)
		w := fx.maintTail(s.epochs, nil, false)
		r.fillLocate(fx, run, &w)
		return r, nil, nil
	}

	// Traced run: the untraced half on a bare fixture, the traced half on a
	// decorated one built from the same seed; both halves must agree on
	// every count.
	half := o.duration() / 2
	bare, err := buildFixture(s.mesh, o.seed, false)
	if err != nil {
		return nil, nil, err
	}
	urun := s.runLocate(bare, o.seed, half, nil)
	uw := bare.maintTail(s.epochs, nil, false)
	bare.close()
	ucounts := locateCounts(bare, urun, &uw)
	bare = nil

	tr := newTracer()
	fx, err := buildFixture(s.mesh, o.seed, true)
	if err != nil {
		return nil, nil, err
	}
	defer fx.close()
	h0, m0, e0 := rowCacheStats(fx.timed)
	run := s.runLocate(fx, o.seed, half, tr)
	h1, m1, e1 := rowCacheStats(fx.timed)
	rp := replay(fx, fx.nodes, fx.guids, run.mixes[0], replayDraws, o.seed)
	w := fx.maintTail(s.epochs, tr.lane(), true)
	r.fillLocate(fx, run, &w)
	r.problems = append(r.problems, compareCounts("traced vs untraced", ucounts, locateCounts(fx, run, &w))...)

	c := run.check
	l := layerInputs{
		locates:      run.loop.attempted,
		locateNs:     tr.meanNs(spLocate),
		dist:         run.loop.dist,
		msgsPerLoc:   float64(c.msgs) / float64(c.locates),
		hopsPerLoc:   float64(c.hops) / float64(c.locates),
		foundRatio:   float64(c.found) / float64(c.locates),
		msgs:         run.loop.msgs,
		links:        run.links,
		rowHits:      h1 - h0,
		rowMisses:    m1 - m0,
		rowEvictions: e1 - e0,
		wire:         s.mesh.cfg.Transport == core.TransportTCP,
		pubMsgs:      int64(fx.pubCost.Messages()),
		pubCalls:     int64(fx.publish.n()),
		placed:       fx.placed,
		mem:          urun.loop.mem,
		memOps:       urun.loop.attempted,
		overhead:     rate(urun.loop.attempted, urun.loop.elapsed) / rate(run.loop.attempted, run.loop.elapsed),
	}
	r.fillLayers(l, rp, &w)
	return r, tr, nil
}

func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// fillLocate fills a locate workload's end-to-end metrics and accounting.
func (r *report) fillLocate(fx *fixture, run *locateRun, w *writeStats) {
	c := run.check
	r.setLocates(run.loop.wins, run.loop.rates, c.wins, float64(c.msgs)/float64(c.locates), &c.stretch)
	r.setWrites(&fx.publish, w)
	r.attempted += run.loop.attempted + c.locates + int64(fx.publish.n())
	bad := run.loop.failed + (c.locates - c.found) + c.wrong
	r.failed += bad
	r.info["locate_fail_ratio"] = float64(bad) / float64(run.loop.attempted+c.locates)
	if bad > 0 {
		r.problem("%d locates failed or named a wrong replica", bad)
	}
}

func runChurnWorkload(s churnSpec, o options) (*report, *tracer, error) {
	r := newReport()
	r.traced = o.trace
	if !o.trace {
		// Three set-ups: one discarded, then two same-seed runs on fresh
		// fixtures, whose counts must be identical and whose timings are
		// pooled.
		var setups []float64
		fx, err := buildKept(s.mesh, o.seed, setupRepeats-2, &setups)
		if err != nil {
			return nil, nil, err
		}
		r.e2e["heap_mb"] = heapMB()
		a, err := s.run(fx, o.seed, nil, false)
		if err != nil {
			return nil, nil, err
		}
		fx = nil
		if fx, err = buildFixture(s.mesh, o.seed, false); err != nil {
			return nil, nil, err
		}
		setups = append(setups, fx.setupS)
		r.setSetup(setups)
		b, err := s.run(fx, o.seed, nil, false)
		if err != nil {
			return nil, nil, err
		}
		r.problems = append(r.problems, compareCounts("same-seed runs", a.counts(), b.counts())...)
		a.merge(b)
		r.fillChurn(a)
		return r, nil, nil
	}

	fx, err := buildFixture(s.mesh, o.seed, false)
	if err != nil {
		return nil, nil, err
	}
	u, err := s.run(fx, o.seed, nil, false)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	if fx, err = buildFixture(s.mesh, o.seed, true); err != nil {
		return nil, nil, err
	}
	h0, m0, e0 := rowCacheStats(fx.timed)
	t, err := s.run(fx, o.seed, tr, true)
	if err != nil {
		return nil, nil, err
	}
	h1, m1, e1 := rowCacheStats(fx.timed)
	r.problems = append(r.problems, compareCounts("traced vs untraced", u.counts(), t.counts())...)
	r.fillChurn(t)
	members := fx.mesh.Nodes()
	mix := zipfDraws(replayDraws, len(members), len(t.guids), s.zipf, streamRNG(o.seed, "replay", 0))
	rp := replay(fx, members, t.guids, mix, replayDraws, o.seed)
	l := t.layerInputs(tr)
	l.links = linksPerNode(fx.mesh)
	l.rowHits, l.rowMisses, l.rowEvictions = h1-h0, m1-m0, e1-e0
	l.mem, l.memOps = u.mem, u.locates+u.write.pubCalls+int64(u.write.join.n())
	l.overhead = t.wall.Seconds() / u.wall.Seconds()
	r.fillLayers(l, rp, &t.write)
	return r, tr, nil
}

// fillChurn fills churn-publish's end-to-end metrics and accounting.
func (r *report) fillChurn(c *churnRun) {
	r.setLocates(c.wins, c.rates, c.wins, float64(c.msgs)/float64(c.locates), &c.strS)
	r.setWrites(&c.write.publish, &c.write)
	r.attempted += c.locates
	r.failed += c.failed
	r.info["locate_fail_ratio"] = float64(c.failed+c.unavail+c.missing) / float64(c.locates)
	r.info["unavailable"] = float64(c.unavail)
	if c.failed > 0 {
		r.problem("%d locates named a node that does not serve the object", c.failed)
	}
}

// layerInputs are the traced run's figures that feed the per-layer metrics.
type layerInputs struct {
	locates      int64
	locateNs     float64 // mean traced locate span
	dist         distanceProbe
	msgsPerLoc   float64
	hopsPerLoc   float64
	foundRatio   float64
	msgs         int64
	links        float64
	rowHits      int64
	rowMisses    int64
	rowEvictions int64
	wire         bool // locates cross the wire codec (TCP)
	pubMsgs      int64
	pubCalls     int64
	placed       int64
	engineEvents int64
	engineQueued int64
	engineWait   float64
	joins        int64
	joinMsgs     int64
	mem          memProbe // untraced run's runtime counters
	memOps       int64
	overhead     float64
}

func (c *churnRun) layerInputs(tr *tracer) layerInputs {
	return layerInputs{
		locates:    c.locates,
		locateNs:   tr.meanNs(spLocate),
		dist:       c.dist,
		msgsPerLoc: float64(c.msgs) / float64(c.locates),
		hopsPerLoc: float64(c.hops) / float64(c.locates),
		foundRatio: float64(c.locates-c.failed-c.unavail-c.missing) / float64(c.locates),
		msgs:       c.total,
		pubMsgs:    c.write.pubMsgs,
		pubCalls:   c.write.pubCalls,
		placed:     c.write.placed,
		joins:      int64(c.write.join.n()),
		joinMsgs:   c.write.joinMsgs,
	}
}

// fillLayers derives the per-layer metrics. Per-call times are inclusive;
// shares use self times (inclusive minus the timed layers below) against
// the traced mean locate time, and core.locate.self_share is what is left.
func (r *report) fillLayers(l layerInputs, rp replayResult, w *writeStats) {
	set := func(name string, v float64) { r.layer[name] = v }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	L := l.locateNs

	distNs := div(float64(l.dist.ns), float64(l.dist.calls))
	metricShare := div(div(float64(l.dist.ns), float64(l.locates)), L)
	set("metric.distance.calls_per_locate", div(float64(l.dist.calls), float64(l.locates)))
	set("metric.distance.ns", distNs)
	set("metric.distance.contention", div(rp.distC2, rp.distC1))
	set("metric.distance.share", metricShare)
	set("metric.rowcache.hit_ratio", div(float64(l.rowHits), float64(l.rowHits+l.rowMisses)))
	set("metric.rowcache.misses", float64(l.rowMisses))
	set("metric.rowcache.evictions", float64(l.rowEvictions))

	// A self time below the batches' noise can come out negative; it
	// reads as zero.
	self := func(v float64) float64 { return math.Max(0, v) }
	sendSelf := self(rp.send - rp.distBare)
	set("netsim.send.ns", rp.send)
	set("netsim.msgs", float64(l.msgs))
	set("netsim.engine.events", float64(l.engineEvents))
	set("netsim.engine.noop_event_ns", rp.noopEvent)
	set("netsim.engine.queued", float64(l.engineQueued))
	set("netsim.engine.max_wait", l.engineWait)

	decisions := l.hopsPerLoc - 1 // every hop but the final verify follows one decision
	if decisions < 0 {
		decisions = 0
	}
	routeShare := div(rp.nextHop*decisions, L)
	set("route.next_hop.ns", rp.nextHop)
	set("route.hops_per_locate", l.hopsPerLoc)
	set("route.links_per_node", l.links)
	set("route.holes", float64(w.holes))

	invokes := l.msgsPerLoc / 2 // each Invoke charges a request and a response
	transportSelf := rp.invoke - 2*rp.send
	if l.wire {
		transportSelf -= rp.pingAckCodec
	}
	transportSelf = self(transportSelf)
	var wireShare, wireBytes float64
	if l.wire {
		// Per locate: one LocateStep/Ack exchange per routing hop, one
		// VerifyReq/VerifyResp exchange with the replica.
		hopNs := rp.frameEnc[0] + rp.frameDec[0] + rp.frameEnc[1] + rp.frameDec[1]
		verNs := rp.frameEnc[2] + rp.frameDec[2] + rp.frameEnc[3] + rp.frameDec[3]
		wireShare = div(decisions*hopNs+verNs, L)
		wireBytes = decisions*float64(rp.frameBytes[0]+rp.frameBytes[1]) + float64(rp.frameBytes[2]+rp.frameBytes[3])
	}
	transportShare := div(transportSelf*invokes, L)
	set("core.transport.invoke_ns", rp.invoke)
	set("core.transport.invokes_per_locate", invokes)
	set("core.transport.share", transportShare)
	set("wire.encode_ns", (rp.frameEnc[0]+rp.frameEnc[1]+rp.frameEnc[2]+rp.frameEnc[3])/4)
	set("wire.decode_ns", (rp.frameDec[0]+rp.frameDec[1]+rp.frameDec[2]+rp.frameDec[3])/4)
	set("wire.bytes_per_locate", wireBytes)
	set("wire.share", wireShare)

	sendShare := div(sendSelf*l.msgsPerLoc, L)
	set("core.locate.self_share", 1-metricShare-sendShare-routeShare-transportShare-wireShare)
	set("core.locate.found_ratio", l.foundRatio)
	set("core.publish.msgs_per_op", div(float64(l.pubMsgs), float64(l.pubCalls)))
	set("core.replicate.placed_per_op", div(float64(l.placed), float64(l.pubCalls)))
	set("core.nearest.slot_ns", rp.nearest)
	set("core.join.msgs_per_op", div(float64(l.joinMsgs), float64(l.joins)))

	epochs := float64(w.epoch.n())
	set("core.maintain.sweep_ms", median(w.sweep.xs))
	set("core.maintain.sweep_msgs", div(float64(w.sweepMsgs), epochs))
	set("core.maintain.links_removed", float64(w.removed))
	set("core.maintain.dead_probe_ratio", div(float64(w.deadProbes), float64(w.probes)))
	set("core.maintain.republish_ms", median(w.republish.xs))
	set("core.maintain.republish_msgs", div(float64(w.repubMsgs), epochs))

	set("runtime.allocs_per_op", div(float64(l.mem.mallocs), float64(l.memOps)))
	set("runtime.bytes_per_op", div(float64(l.mem.bytes), float64(l.memOps)))
	set("runtime.gc_cycles", float64(l.mem.gcs))
	set("trace.overhead", l.overhead)
}

func runPlanetWorkload(s planetSpec, o options) (*report, *tracer, error) {
	r := newReport()
	r.traced = o.trace
	if !o.trace {
		// Three set-ups: one discarded, run A (event run, then the serial
		// phases), and run B (event run only), whose counts must equal A's.
		var setups []float64
		fx, err := buildKept(s.mesh, o.seed, setupRepeats-2, &setups)
		if err != nil {
			return nil, nil, err
		}
		r.e2e["heap_mb"] = heapMB()
		a := s.eventRun(fx, o.seed, nil)
		s.afterRun(fx, a, o.seed, nil, false)
		fx = nil
		if fx, err = buildFixture(s.mesh, o.seed, false); err != nil {
			return nil, nil, err
		}
		setups = append(setups, fx.setupS)
		r.setSetup(setups)
		pub := fx.publish
		b := s.eventRun(fx, o.seed, nil)
		r.problems = append(r.problems, compareCounts("same-seed event runs", a.vcounts, b.vcounts)...)
		r.fillPlanet(a, []*planetRun{a, b}, &pub)
		return r, nil, nil
	}

	fx, err := buildFixture(s.mesh, o.seed, false)
	if err != nil {
		return nil, nil, err
	}
	u := s.eventRun(fx, o.seed, nil)
	tr := newTracer()
	if fx, err = buildFixture(s.mesh, o.seed, true); err != nil {
		return nil, nil, err
	}
	h0, m0, e0 := rowCacheStats(fx.timed)
	t := s.eventRun(fx, o.seed, tr)
	s.afterRun(fx, t, o.seed, tr, true)
	h1, m1, e1 := rowCacheStats(fx.timed)
	r.problems = append(r.problems, compareCounts("traced vs untraced event runs", u.vcounts, t.vcounts)...)
	r.fillPlanet(t, []*planetRun{t}, &fx.publish)
	members := fx.mesh.Nodes()
	mix := zipfDraws(replayDraws, len(members), len(fx.guids), s.zipf, streamRNG(o.seed, "replay", 0))
	rp := replay(fx, members, fx.guids, mix, replayDraws, o.seed)
	l := t.batch.layerInputs(tr)
	l.msgs = t.total
	l.links = linksPerNode(fx.mesh)
	l.rowHits, l.rowMisses, l.rowEvictions = h1-h0, m1-m0, e1-e0
	l.pubMsgs, l.pubCalls, l.placed = int64(fx.pubCost.Messages()), int64(fx.publish.n()), fx.placed
	l.engineEvents, l.engineQueued, l.engineWait = int64(t.engine.Events), int64(t.engine.Queued), t.engine.MaxWait
	l.joins, l.joinMsgs = t.joins, t.joinMsgs
	l.mem, l.memOps = u.mem, int64(u.engine.Events)
	l.overhead = t.runDur.Seconds() / u.runDur.Seconds()
	r.fillLayers(l, rp, &t.write)
	return r, tr, nil
}

// fillPlanet fills planet-virtual's end-to-end metrics. a carries the
// serial phases; the event runs of every same-seed run pool into the
// simulator's rate.
func (r *report) fillPlanet(a *planetRun, runs []*planetRun, pub *samples) {
	var locates, events int64
	var wall time.Duration
	for _, p := range runs {
		locates += p.vlocates
		events += int64(p.engine.Events)
		wall += p.runDur
	}
	b := a.batch
	// Messages and stretch are the event run's. A locate there has no wall
	// clock of its own, so rate and latency come from the serial
	// direct-call batches on the repaired mesh; the simulator's own speed
	// is printed as sim_events_per_s and sim_locates_per_s.
	r.setLocates(b.wins, b.rates, b.wins, float64(a.vmsgs)/float64(a.vlocates), &a.vstrS)
	r.setWrites(pub, &a.write)
	r.info["sim_events_per_s"] = rate(events, wall)
	r.info["sim_locates_per_s"] = rate(locates, wall)
	r.infoTiming("locate_vlat_p99", &a.vlat, 0.99)
	r.info["locate_fail_ratio"] = float64(a.vlocates-a.vfound) / float64(a.vlocates)
	r.info["batch_locate_fail_ratio"] = float64(b.failed+b.unavail+b.missing) / float64(b.locates)
	r.info["unavailable"] = float64(a.vunavail + b.unavail)
	r.attempted += locates + b.locates
	r.failed += a.vwrong + b.failed
	if a.vwrong+b.failed > 0 {
		r.problem("%d event-run and %d batch locates named a wrong replica", a.vwrong, b.failed)
	}
}
