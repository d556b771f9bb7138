package core

import (
	"fmt"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/wire"
)

// Every walk in the paper is the same walk: surrogate routing toward a key's
// root (Section 2.3). Route, publish, unpublish, locate, the audits, pointer
// re-routes (§4.2 join hand-off, §5.1 leave) and the §6.3 stub-local walks
// all take their hops through (*Node).walk; each supplies only its step
// message and what it does at every node it reaches. The batched republish
// caravan (maintain.go) is the one exception — it forwards many records per
// hop — and shares the deposit and root-flag helpers below instead.

// walkSpec describes one key-directed walk. The zero value of every optional
// field means a plain wide-area walk: nothing routed around, no stub, no
// bounce.
type walkSpec struct {
	key   ids.ID
	level int           // digits already resolved at the start node
	step  wire.WalkStep // the caller's hop message; the driver stamps level and hops
	// avoid is a node to route around, as if it did not exist (§5.1 leave,
	// Figure 10's "as if the new node were absent"); zero for none.
	avoid ids.ID
	// stub confines every hop to one transit-stub region (§6.3).
	stub stubScope
	// bounce sends a walk whose terminal is a still-inserting node on to
	// that node's pre-insertion surrogate (Figure 10).
	bounce bool
}

// routeResult is where a key-directed walk ended.
type routeResult struct {
	node *Node
	hops int
}

// walk drives w from n toward its key's root and returns where it ended.
// visit, if non-nil, runs exactly once at every node the walk reaches —
// the start node with hops 0, then each arrival with the digits resolved on
// arrival and the hops taken so far — and returns true to stop the walk
// there (e.g. a locate found a pointer).
//
// The driver owns what every walk shares:
//   - Observation 1 fault tolerance: a neighbor whose host turns out dead
//     goes into the walk's dead set, the stale link is repaired (noteDead),
//     and the decision is re-made from the same node without re-visiting it.
//     The dead set is what guarantees progress: noteDead is a no-op at a
//     node that is itself dead, so the table alone would re-offer the corpse.
//   - Figure 10 (when w.bounce): a node still inserting must not act as a
//     terminal, since its table is preliminary — ending a surrogate walk
//     there would, e.g., give a concurrent Join a near-empty table to seed
//     from. The walk bounces, at most once per node, to the inserter's
//     pre-insertion surrogate, which routes as if the new node did not exist.
//     The inserter joins the dead set: a single excluded ID is not enough,
//     because a walk that bounces off a second inserter could otherwise
//     re-enter (and wrongly terminate at) the first.
//   - The hop budget: a walk longer than Levels×Base+8 hops (Theorem 2
//     implies at most Levels) reports an inconsistent mesh.
//   - The per-hop Level and Hops fields of the step message.
func (n *Node) walk(w *walkSpec, cost *netsim.Cost, visit func(cur *Node, level, hops int) bool) (routeResult, error) {
	// The dead set and the bounce set are lazily allocated: a healthy walk
	// never touches them, so the locate and publish hot paths stay
	// allocation-free.
	skip := hopFilter{avoid: w.avoid, stub: w.stub}
	var bounced map[ids.ID]struct{}
	cur, level, hops := n, w.level, 0
	maxHops := n.table.Levels()*n.table.Base() + 8
	for {
		if visit != nil && visit(cur, level, hops) {
			return routeResult{node: cur, hops: hops}, nil
		}
		for {
			cur.mu.Lock()
			dec := cur.nextHop(w.key, level, &skip)
			inserting := cur.state == stateInserting
			psur := cur.psurrogate
			alpha := cur.alpha
			cur.mu.Unlock()
			if dec.terminal {
				_, again := bounced[cur.id]
				if !w.bounce || !inserting || psur.ID.IsZero() || again {
					return routeResult{node: cur, hops: hops}, nil
				}
				if bounced == nil {
					bounced = make(map[ids.ID]struct{}, 2)
				}
				bounced[cur.id] = struct{}{}
				skip.markDead(cur.id)
				w.step.SetHop(level, hops)
				next, err := n.mesh.invoke(cur.addr, psur, w.step, msgAck, cost, true)
				if err != nil {
					// The pre-insertion surrogate died (join racing churn):
					// degrade to terminating here rather than failing every
					// walk that lands on this inserting node.
					return routeResult{node: cur, hops: hops}, nil
				}
				cur = next
				// Resume from the arrival level if it is below |α|: the
				// inserter's preliminary table may have resolved rows
				// level..|α|-1 differently than its surrogate would, and
				// "as if absent" means re-deciding them too.
				level = min(level, alpha.Len())
				break
			}
			w.step.SetHop(dec.nextLevel, hops)
			next, err := n.mesh.invoke(cur.addr, dec.next, w.step, msgAck, cost, true)
			if err != nil {
				skip.markDead(dec.next.ID)
				cur.noteDead(dec.next, cost)
				continue
			}
			cur = next
			level = dec.nextLevel
			break
		}
		hops++
		if hops > maxHops {
			return routeResult{}, fmt.Errorf("core: routing to %v exceeded %d hops (mesh inconsistent)", w.key, maxHops)
		}
	}
}

// routeToKey walks from n toward key's root on a RouteStep tagged with op
// (route, publish or unpublish), bouncing off inserting terminals; visit is
// as for walk.
func (n *Node) routeToKey(key ids.ID, cost *netsim.Cost, op wire.RouteOp, visit func(cur *Node, level, hops int) bool) (routeResult, error) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.route.Key, f.route.Op = key, op
	return n.walk(&walkSpec{key: key, step: &f.route, bounce: true}, cost, visit)
}

// depositConverging stores rec at cur. If cur already held the record with a
// different predecessor, the new path has converged onto a stale trail from
// elsewhere, which is torn down backwards from that predecessor down to
// stopAt (Figure 9's DeletePointersBackward with its changedNode argument).
func (cur *Node) depositConverging(rec pointerRec, stopAt ids.ID, cost *netsim.Cost) {
	old, existed := cur.depositPointer(rec)
	if existed && !old.lastHop.IsZero() && !old.lastHop.Equal(rec.lastHop) {
		cur.deleteBackward(rec.guid, rec.key, rec.server, old.lastHop, old.lastAddr, stopAt, cost)
	}
}

// flagRoot marks cur's record of the (server, key) publish path as the
// path's root.
func (cur *Node) flagRoot(guid, server, key ids.ID) {
	cur.mu.Lock()
	if st := cur.objects[guid]; st != nil {
		for i := range st.recs {
			if st.recs[i].samePath(server, key) {
				st.recs[i].root = true
			}
		}
	}
	cur.mu.Unlock()
}
