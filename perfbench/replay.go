package main

import (
	"sync"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
	"tapestry/internal/workload"
)

// The replay follows the traced timed phase on the same fixture. It takes
// the workload's own draws and times, in batches, the calls a locate makes
// into each layer, so each layer's budget is its time per call multiplied by
// its calls per locate.

// replayResult holds per-call times in nanoseconds.
type replayResult struct {
	distC1, distC2 float64 // Distance inside serial and two-goroutine locates
	distBare       float64 // Distance on the bare space
	nextHop        float64 // Node.NextHopDecision
	invoke         float64 // Transport().Invoke, Ping/Ack
	pingAckCodec   float64 // encode+decode of the Ping and Ack frames
	send           float64 // Network.Send
	nearest        float64 // Node.NearestForSlot
	noopEvent      float64 // Engine.At + Run of an empty op

	// Locate-path frames (LocateStep, Ack, VerifyReq, VerifyResp): per-frame
	// encode and decode times and encoded sizes.
	frameEnc, frameDec [4]float64
	frameBytes         [4]int
}

// batchRepeats is how many times each batch runs; the median is kept.
const batchRepeats = 3

// perCall times fn over n calls batchRepeats times and returns the median
// nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var xs []float64
	for r := 0; r < batchRepeats; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// hopStep is one routing decision on a draw's path toward its root.
type hopStep struct {
	node  *core.Node
	key   ids.ID
	level int
}

// replay runs the per-layer batches on fx. nodes and guids are the
// workload's live members and objects; mix indexes them.
func replay(fx *fixture, nodes []*core.Node, guids []ids.ID, mix workload.QueryMix, n int, seed int64) replayResult {
	var r replayResult
	if n > len(mix.Objects) {
		n = len(mix.Objects)
	}
	spec := fx.mesh.Spec()

	// Distance per call inside locates, serial and at two goroutines.
	locate := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nodes[mix.Clients[i]%len(nodes)].Locate(guids[mix.Objects[i]%len(guids)], nil)
		}
	}
	fx.timed.timing.Store(true)
	d0 := fx.timed.snapshot()
	locate(0, n)
	d1 := fx.timed.snapshot()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			locate(c*n/2, (c+1)*n/2)
		}(c)
	}
	wg.Wait()
	d2 := fx.timed.snapshot()
	fx.timed.timing.Store(false)
	if p := d1.sub(d0); p.calls > 0 {
		r.distC1 = float64(p.ns) / float64(p.calls)
	}
	if p := d2.sub(d1); p.calls > 0 {
		r.distC2 = float64(p.ns) / float64(p.calls)
	}

	// The routing decisions each draw's locate makes — the first Hops-1
	// steps of its path toward the root, the last hop being the replica
	// verification — and the first hop of each path as the Send/Invoke pair.
	var steps []hopStep
	type pair struct {
		from netsim.Addr
		to   route.Entry
	}
	var pairs []pair
	for i := 0; i < n; i++ {
		cur := nodes[mix.Clients[i]%len(nodes)]
		guid := guids[mix.Objects[i]%len(guids)]
		res := cur.Locate(guid, nil)
		key := spec.Salt(guid, 0)
		level := 0
		for hop := 0; hop < res.Hops-1; hop++ {
			steps = append(steps, hopStep{cur, key, level})
			e, next, terminal := cur.NextHopDecision(key, level)
			if terminal {
				break
			}
			if hop == 0 {
				pairs = append(pairs, pair{cur.Addr(), e})
			}
			nxt := fx.mesh.NodeAt(e.Addr)
			if nxt == nil {
				break
			}
			cur, level = nxt, next
		}
	}
	bare := fx.timed.inner
	r.distBare = perCall(len(pairs), func(i int) { bare.Distance(int(pairs[i].from), int(pairs[i].to.Addr)) })
	r.nextHop = perCall(len(steps), func(i int) { steps[i].node.NextHopDecision(steps[i].key, steps[i].level) })
	var cost netsim.Cost
	r.send = perCall(len(pairs), func(i int) { _ = fx.net.Send(pairs[i].from, pairs[i].to.Addr, &cost, true) })
	ping, ack := &wire.Ping{}, &wire.Ack{}
	tr := fx.mesh.Transport()
	r.invoke = perCall(len(pairs), func(i int) { _, _ = tr.Invoke(pairs[i].from, pairs[i].to, ping, ack, &cost, false) })

	// Codec work of the locate-path frames and of the Ping/Ack pair.
	frames := [4]wire.Msg{
		&wire.LocateStep{Key: spec.Salt(guids[0], 0), GUID: guids[0], Level: 2, Hops: 3},
		&wire.Ack{},
		&wire.VerifyReq{GUID: guids[0]},
		&wire.VerifyResp{Serves: true},
	}
	var buf []byte
	for f, m := range frames {
		enc := func(i int) { buf = wire.AppendFrame(buf[:0], m) }
		r.frameEnc[f] = perCall(n, enc)
		encoded := wire.AppendFrame(nil, m)
		r.frameBytes[f] = len(encoded)
		into := wire.New(m.WireType())
		r.frameDec[f] = perCall(n, func(i int) { _, _ = wire.DecodeFrameInto(encoded, into) })
	}
	pingFrame, ackFrame := wire.AppendFrame(nil, ping), wire.AppendFrame(nil, ack)
	r.pingAckCodec = perCall(n, func(i int) {
		buf = wire.AppendFrame(buf[:0], ping)
		_, _ = wire.DecodeFrameInto(pingFrame, ping)
		buf = wire.AppendFrame(buf[:0], ack)
		_, _ = wire.DecodeFrameInto(ackFrame, ack)
	})

	// The §4.2 slot search from a few of the draws' clients.
	slots := n
	if slots > 32 {
		slots = 32
	}
	r.nearest = perCall(slots, func(i int) {
		c := nodes[mix.Clients[i]%len(nodes)]
		key := spec.Salt(guids[mix.Objects[i]%len(guids)], 0)
		c.NearestForSlot(1, key.Digit(1), &cost)
	})

	// A batch of no-op events on a fresh engine.
	const events = 20000
	r.noopEvent = perCall(1, func(int) {
		e := netsim.NewEngine(seed)
		for i := 0; i < events; i++ {
			e.At(float64(i), func() {})
		}
		e.Run()
	}) / events
	return r
}
