package main

import (
	"fmt"
	"math/rand"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// The timed write-side operations: a join at a reserve address, a
// replicated publish, and one maintenance epoch (mesh-wide sweep, then the
// soft-state republish). Each is timed on the wall clock, charged to its own
// Cost, and recorded as a span on the lane (a nil lane records nothing).

// writeStats accumulates the timed write-side operations of a run.
type writeStats struct {
	join     samples // ms per Join
	joinMsgs int64
	joinErrs int64

	publish  samples // ms per publish call
	pubMsgs  int64
	placed   int64
	pubCalls int64
	pubErrs  int64

	epoch      samples // ms per maintenance epoch (sweep + republish)
	sweep      samples // ms per SweepDeadAll
	republish  samples // ms per RunMaintenanceEpoch
	sweepMsgs  int64
	repubMsgs  int64
	removed    int64
	probes     int64 // distinct neighbors the sweeps probed
	deadProbes int64 // of which dead
	holes      int64 // AuditProperty1 violations at epoch ends (traced run only)
}

// merge pools o's samples and totals into w.
func (w *writeStats) merge(o *writeStats) {
	w.join.merge(&o.join)
	w.publish.merge(&o.publish)
	w.epoch.merge(&o.epoch)
	w.sweep.merge(&o.sweep)
	w.republish.merge(&o.republish)
	w.joinMsgs += o.joinMsgs
	w.joinErrs += o.joinErrs
	w.pubMsgs += o.pubMsgs
	w.placed += o.placed
	w.pubCalls += o.pubCalls
	w.pubErrs += o.pubErrs
	w.sweepMsgs += o.sweepMsgs
	w.repubMsgs += o.repubMsgs
	w.removed += o.removed
	w.probes += o.probes
	w.deadProbes += o.deadProbes
	w.holes += o.holes
}

// join inserts one node at addr with a fresh ID through a gateway drawn
// from members, and returns it.
func (fx *fixture) join(members []*core.Node, addr netsim.Addr, rng *rand.Rand, w *writeStats, ln *lane, op int64, parent int32) (*core.Node, error) {
	spec := fx.mesh.Spec()
	id := spec.Random(rng)
	for fx.mesh.NodeByID(id) != nil {
		id = spec.Random(rng)
	}
	gw := members[rng.Intn(len(members))]
	h := ln.open(spJoin, op, parent)
	t0 := time.Now()
	n, cost, err := fx.mesh.Join(gw, id, addr)
	w.join.add(msSince(t0))
	ln.end(h)
	w.joinMsgs += int64(cost.Messages())
	if err != nil {
		w.joinErrs++
		return nil, fmt.Errorf("join at %d: %w", addr, err)
	}
	return n, nil
}

// publishReplicated places guid from n and its closest peers.
func (fx *fixture) publishReplicated(n *core.Node, guid ids.ID, w *writeStats, ln *lane, op int64, parent int32) error {
	var cost netsim.Cost
	h := ln.open(spPublish, op, parent)
	t0 := time.Now()
	placed, err := n.PublishReplicated(guid, &cost)
	w.publish.add(msSince(t0))
	ln.end(h)
	w.pubCalls++
	w.pubMsgs += int64(cost.Messages())
	w.placed += int64(placed)
	if err != nil {
		w.pubErrs++
		return fmt.Errorf("publish: %w", err)
	}
	return nil
}

// maintEpoch runs one maintenance epoch: SweepDeadAll, then
// RunMaintenanceEpoch. audit adds the Property 1 hole count at the epoch
// end (read-only, outside the timed span).
func (fx *fixture) maintEpoch(w *writeStats, ln *lane, op int64, parent int32, audit bool) {
	probes, dead := deadNeighborCensus(fx.mesh)
	w.probes += int64(probes)
	w.deadProbes += int64(dead)
	var sc, rc netsim.Cost
	t0 := time.Now()
	w.removed += int64(fx.mesh.SweepDeadAll(&sc))
	t1 := time.Now()
	fx.mesh.RunMaintenanceEpoch(&rc)
	t2 := time.Now()
	ln.add(spSweep, op, parent, t0, t1)
	ln.add(spRepublish, op, parent, t1, t2)
	w.sweep.add(float64(t1.Sub(t0).Nanoseconds()) / 1e6)
	w.republish.add(float64(t2.Sub(t1).Nanoseconds()) / 1e6)
	w.epoch.add(float64(t2.Sub(t0).Nanoseconds()) / 1e6)
	w.sweepMsgs += int64(sc.Messages())
	w.repubMsgs += int64(rc.Messages())
	if audit {
		w.holes += int64(len(fx.mesh.AuditProperty1()))
	}
}

// maintTail runs maintenance epochs on a fixture after its locate phase:
// the maintenance figures of the workloads whose timed phase only reads.
func (fx *fixture) maintTail(epochs int, ln *lane, audit bool) writeStats {
	var w writeStats
	for e := 0; e < epochs; e++ {
		fx.maintEpoch(&w, ln, int64(e), -1, audit)
	}
	return w
}
