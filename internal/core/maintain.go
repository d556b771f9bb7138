package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// Batched soft-state maintenance (Section 6.5). The per-object, per-link
// versions of the heartbeat and the republish refresh send traffic
// proportional to links and objects×hops respectively; a maintenance epoch
// over a settled mesh repeats almost all of that work. The two entry points
// here coalesce it:
//
//   - Mesh.SweepDeadAll probes each distinct neighbor once per epoch
//     mesh-wide and shares the verdict across every node that links to it,
//     so probe traffic scales with distinct addresses rather than total
//     links.
//   - Node.republishBatched drives all of a server's publish records as one
//     caravan: at every node on the way records sharing the same next hop
//     ride a single grouped message, so refresh traffic scales with the
//     distinct routes out of each node rather than objects×hops.
//
// Both preserve the unbatched semantics — SweepDead's per-level dead-link
// counts and publishPath's deposit/convergence/teardown behavior — and both
// stay deterministic: nodes in ID order, records in (GUID, salt) order,
// next-hop groups in first-seen order.

// SweepDeadAll runs the Section 6.5 heartbeat for every node with epoch-wide
// probe coalescing: each distinct neighbor is probed once (by the first node
// in ID order that links to it) and the liveness verdict is shared, after
// which every holder of a dead link drops it through the same noteDead path
// the per-node sweep uses — per-level removal counts and repair behavior are
// identical, only the redundant probes are gone. Returns the total number of
// dead links removed across the mesh.
func (m *Mesh) SweepDeadAll(cost *netsim.Cost) int {
	return m.sweepDead(m.Nodes(), cost)
}

// sweepDead is the heartbeat loop of both sweeps. Each node considers each
// distinct neighbor once, in its snapshot's (level, digit, rank) order;
// the first probe of a neighbor decides its verdict for every later holder.
// With one node, the verdict map is exactly that node's seen set.
func (m *Mesh) sweepDead(nodes []*Node, cost *netsim.Cost) int {
	verdict := map[ids.ID]bool{}
	removed := 0
	for _, n := range nodes {
		seen := map[ids.ID]struct{}{}
		for _, le := range n.snapshotTable() {
			e := le.E
			if _, dup := seen[e.ID]; dup {
				continue
			}
			seen[e.ID] = struct{}{}
			alive, probed := verdict[e.ID]
			if !probed {
				_, err := m.invoke(n.addr, e, msgPing, msgAck, cost, false)
				alive = err == nil
				verdict[e.ID] = alive
			}
			if !alive {
				removed += n.noteDead(e, cost)
			}
		}
	}
	return removed
}

// republishBatched re-lays the publish paths of the given served objects,
// visiting nodes exactly as publishPath would (deposit at every hop,
// convergence teardown, root flag at the terminal) but carrying all records
// together and spending ONE message per distinct next hop per node instead
// of one per record. Records that terminate on a mid-insertion node fall
// back to the single-path walk, which implements the Figure 10 bounce.
func (n *Node) republishBatched(guids []ids.ID, cost *netsim.Cost) {
	spec := n.mesh.cfg.Spec
	now := n.mesh.net.Epoch()
	recs := make([]wire.PubRec, 0, len(guids)*n.mesh.cfg.RootSetSize)
	for _, g := range guids {
		for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
			recs = append(recs, wire.PubRec{GUID: g, Key: spec.Salt(g, i), PrevAddr: n.addr, Salt: i})
		}
	}

	type batch struct {
		node *Node
		recs []wire.PubRec
	}
	maxHops := n.table.Levels()*n.table.Base() + 8 // same loop guard as walk
	cf := n.mesh.getFrames()
	cf.caravan.Server, cf.caravan.ServerAddr = n.id, n.addr
	queue := []batch{{n, recs}}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		cur := b.node

		// Visit: deposit every record at this node; a changed lastHop on an
		// existing record means this path converged onto a stale trail,
		// which is torn down backwards (Figure 9) exactly as in publishPath.
		for i := range b.recs {
			r := &b.recs[i]
			cur.depositConverging(pointerRec{
				guid:       r.GUID,
				server:     n.id,
				serverAddr: n.addr,
				key:        r.Key,
				lastHop:    r.PrevID,
				lastAddr:   r.PrevAddr,
				level:      r.Level,
				epoch:      now,
			}, n.id, cost)
		}

		// Decide next hops for the whole batch under one lock, group records
		// by next node in first-seen order, and forward each group with a
		// single message. A dead next hop is noted once and its group's
		// records re-decided with the corpse excluded, like walk's
		// retry-through-secondaries.
		// nextLevels[i] is record i's digits-resolved counter after the
		// decided hop; recs[i].level itself stays the arrival level so a
		// failed hop re-decides from the same state walk would.
		var skip hopFilter
		nextLevels := make([]int, len(b.recs))
		type group struct {
			next route.Entry
			idxs []int
		}
		decide := func(idxs []int) (terminals []int, groups []*group) {
			byNext := map[ids.ID]*group{}
			cur.mu.Lock()
			for _, i := range idxs {
				dec := cur.nextHop(b.recs[i].Key, b.recs[i].Level, &skip)
				if dec.terminal {
					terminals = append(terminals, i)
					continue
				}
				nextLevels[i] = dec.nextLevel
				g := byNext[dec.next.ID]
				if g == nil {
					g = &group{next: dec.next}
					byNext[dec.next.ID] = g
					groups = append(groups, g)
				}
				g.idxs = append(g.idxs, i)
			}
			cur.mu.Unlock()
			return terminals, groups
		}

		all := make([]int, len(b.recs))
		for i := range all {
			all[i] = i
		}
		terminals, groups := decide(all)

		for gi := 0; gi < len(groups); gi++ {
			g := groups[gi]
			// The forwarded records ride the CaravanStep hop itself (one
			// message per distinct next hop, as before).
			sub := make([]wire.PubRec, 0, len(g.idxs))
			for _, i := range g.idxs {
				r := b.recs[i]
				r.Level = nextLevels[i]
				r.PrevID, r.PrevAddr = cur.id, cur.addr
				r.Hops++
				if r.Hops > maxHops {
					continue // inconsistent mesh; drop like RepublishAll drops errors
				}
				sub = append(sub, r)
			}
			cf.caravan.Recs = sub
			next, err := n.mesh.invoke(cur.addr, g.next, &cf.caravan, msgAck, cost, true)
			if err != nil {
				skip.markDead(g.next.ID)
				cur.noteDead(g.next, cost)
				// Re-decide just this group's records; new groups append to
				// the worklist and terminals join the batch's terminal set.
				t2, g2 := decide(g.idxs)
				terminals = append(terminals, t2...)
				groups = append(groups, g2...)
				continue
			}
			if len(sub) > 0 {
				queue = append(queue, batch{next, sub})
			}
		}

		handleTerminalRecords(n, cur, b.recs, terminals, cost)
	}
	cf.caravan.Recs = nil
	n.mesh.putFrames(cf)
}

// handleTerminalRecords finishes records whose walk ends at cur: flag them
// as roots, unless cur is still inserting — then fall back to the unbatched
// publishPath, which implements the Figure 10 bounce off the pre-insertion
// surrogate.
func handleTerminalRecords(server, cur *Node, recs []wire.PubRec, idxs []int, cost *netsim.Cost) {
	if len(idxs) == 0 {
		return
	}
	cur.mu.Lock()
	bounce := cur.state == stateInserting && !cur.psurrogate.ID.IsZero()
	cur.mu.Unlock()
	for _, i := range idxs {
		if bounce {
			_ = server.publishPath(recs[i].GUID, recs[i].Key, cost)
		} else {
			cur.flagRoot(recs[i].GUID, server.id, recs[i].Key)
		}
	}
}
