package core

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// Section 6.3 locality enhancement: on transit-stub topologies, latency
// differences between intra-stub and inter-stub paths are an order of
// magnitude or more, so "an object locate request never leaves the
// originating stub if there is a copy of the object somewhere inside the
// stub". Publication spawns a local-branch publish restricted to the stub,
// rooted at a stub-local surrogate; queries try the stub-restricted route
// first and resume wide-area routing only on a local miss.
//
// The stub oracle is the metric's region labelling (metric.Regions; the
// transit-stub generator populates it at every size); in deployments the
// paper suggests approximating it with a latency threshold.

// regionOf returns the locality region of an address, or -1 when the metric
// has no region structure (transit routers also report -1: they belong to
// the wide area). The labelling is cached on the Mesh at construction.
func (m *Mesh) regionOf(a netsim.Addr) int {
	if len(m.regions) > 0 {
		return m.regions[a]
	}
	return -1
}

// stubScope confines a walk's hops, or a query's choice of replica, to one
// region ("treats the local network as its entire domain"). The zero value
// is the wide area.
type stubScope struct {
	local  bool
	region int
}

// inStub scopes to one region.
func inStub(region int) stubScope { return stubScope{local: true, region: region} }

// admits reports whether address a lies inside the scope.
func (s stubScope) admits(m *Mesh, a netsim.Addr) bool {
	return !s.local || m.regionOf(a) == s.region
}

// stubWalk routes from n toward key using only links inside region,
// applying visit at each node (including endpoints). All hops are
// intra-stub by construction.
func (n *Node) stubWalk(key ids.ID, region int, cost *netsim.Cost, visit func(cur *Node, level, hops int) bool) {
	f := n.mesh.getFrames()
	defer n.mesh.putFrames(f)
	f.local.Key, f.local.Region = key, region
	_, _ = n.walk(&walkSpec{key: key, step: &f.local, stub: inStub(region)}, cost, visit)
}

// PublishLocal publishes the object both wide-area (the ordinary publish)
// and along a stub-restricted branch rooted inside the server's stub, so
// stub-mates can find it without wide-area traffic. On metrics without
// region structure it degrades to a plain Publish.
func (n *Node) PublishLocal(guid ids.ID, cost *netsim.Cost) error {
	if err := n.Publish(guid, cost); err != nil {
		return err
	}
	region := n.mesh.regionOf(n.addr)
	if region < 0 {
		return nil
	}
	now := n.mesh.net.Epoch()
	for i := 0; i < n.mesh.cfg.RootSetSize; i++ {
		key := n.mesh.cfg.Spec.Salt(guid, i)
		prevID, prevAddr := ids.ID{}, n.addr
		n.stubWalk(key, region, cost, func(cur *Node, level, _ int) bool {
			cur.depositPointer(pointerRec{
				guid: guid, server: n.id, serverAddr: n.addr,
				key: key, lastHop: prevID, lastAddr: prevAddr,
				level: level, epoch: now,
			})
			prevID, prevAddr = cur.id, cur.addr
			return false
		})
	}
	return nil
}

// LocateLocal performs the two-phase query of Section 6.3: first a
// stub-restricted search (which cannot leave the client's stub, and answers
// only from replicas inside it), then, on a miss, the ordinary wide-area
// locate. The second return value reports whether the query was satisfied
// without leaving the stub.
func (n *Node) LocateLocal(guid ids.ID, cost *netsim.Cost) (LocateResult, bool) {
	region := n.mesh.regionOf(n.addr)
	if region >= 0 {
		key := n.mesh.cfg.Spec.Salt(guid, 0)
		var found LocateResult
		n.stubWalk(key, region, cost, func(cur *Node, _, hops int) bool {
			found, _ = cur.serveQuery(guid, inStub(region), cost, &hops)
			return found.Found
		})
		if found.Found {
			return found, true
		}
	}
	return n.Locate(guid, cost), false
}
