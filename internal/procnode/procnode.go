// Package procnode is the daemon side of the multi-process overlay: the
// state and protocol handlers behind cmd/tapestry-node. Each daemon hosts one
// Tapestry node — a static routing table, an object-pointer map and a served
// set — and speaks the wire cluster protocol (internal/wire, types 40+) over
// TCP: the examples/cluster harness installs each node's table and endpoint
// book, then publish and locate walks forward daemon-to-daemon using ordinary
// surrogate routing, exactly the prefix-by-prefix descent of internal/core
// but with every hop a real socket exchange.
//
// Every exchange runs on internal/wire's socket layer, the one core's TCP
// transport uses: requests travel in an envelope that names the node they
// are for, and each peer daemon is reached through one pooled client built
// from the endpoint book. A daemon answers "gone" to a request addressed to
// any node but the one it hosts, so a stale endpoint book cannot deliver a
// hop to the wrong node.
//
// The daemon deliberately reuses the single-process building blocks rather
// than reimplementing them: identifiers and surrogate order from
// internal/ids, the CSR routing table from internal/route (route.New inserts
// the owner into its own slots, so "self resolves the digit" works unchanged)
// and the message catalog from internal/wire. Only the hop loop itself lives
// here, because in-process routing drives walks from the mesh while a daemon
// sees one hop at a time.
package procnode

import (
	"fmt"
	"net"
	"sync"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// pointer is one deposited object pointer: the GUID's storage server.
type pointer struct {
	server ids.ID
	addr   netsim.Addr
}

// Node is one daemon-hosted overlay node. Until a ClusterInstall provisions
// it, it refuses every walk.
type Node struct {
	mu     sync.Mutex
	self   route.Entry
	table  *route.Table
	peers  map[netsim.Addr]*wire.Client // overlay address -> its daemon
	served map[ids.ID]struct{}          // GUIDs stored at this node
	ptrs   map[ids.ID]pointer           // GUID -> pointer toward its server
}

// New returns an empty daemon node awaiting a ClusterInstall.
func New() *Node {
	return &Node{
		served: make(map[ids.ID]struct{}),
		ptrs:   make(map[ids.ID]pointer),
	}
}

// Serve answers requests until the listener closes, then releases the
// node's peer clients. Connections are independent, so the harness and
// forwarding peers may overlap freely.
func (n *Node) Serve(ln net.Listener) error {
	defer n.closePeers()
	return wire.Serve(ln, n.serve)
}

// serve is the wire handler: a request addressed to any node but this one
// is answered gone, and one handle refuses drops the connection.
func (n *Node) serve(r *wire.Request) (resp wire.Msg, gone, drop bool) {
	if !n.addressed(r) {
		return nil, true, false
	}
	resp = n.handle(r.Msg)
	return resp, false, resp == nil
}

// addressed reports whether r is for this node: an install must name the
// identity it installs, and every other request the installed one.
func (n *Node) addressed(r *wire.Request) bool {
	if inst, ok := r.Msg.(*wire.ClusterInstall); ok {
		return sameNode(inst.Self, r.To)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.table != nil && sameNode(n.self, r.To)
}

func sameNode(a, b route.Entry) bool { return a.Addr == b.Addr && a.ID.Equal(b.ID) }

// handle dispatches one request and returns its reply. A nil reply is a
// protocol error, on which the server drops the connection: a frame that is
// not a cluster request, an install describing a table the daemon cannot
// hold, or a publish or locate that is malformed or arrives before any
// install. One bad frame must never take the daemon down.
func (n *Node) handle(req wire.Msg) wire.Msg {
	switch m := req.(type) {
	case *wire.ClusterInstall:
		if !validInstall(m) {
			return nil
		}
		n.install(m)
		return &wire.ClusterAck{}
	case *wire.ClusterServe:
		n.mu.Lock()
		for _, g := range m.GUIDs {
			n.served[g] = struct{}{}
		}
		n.mu.Unlock()
		return &wire.ClusterAck{}
	case *wire.ClusterPublish:
		return n.publish(m)
	case *wire.ClusterLocate:
		return n.locate(m)
	default:
		return nil
	}
}

// maxR bounds an installed table's neighbor-set capacity, far above any
// configured R: route.New allocates Digits×(R+1) entries up front.
const maxR = 64

// validInstall reports whether m describes a table route.New and Add can
// hold: a valid spec, 1 ≤ R ≤ maxR, a well-formed self ID, and rows at
// levels inside the spec naming well-formed IDs.
func validInstall(m *wire.ClusterInstall) bool {
	spec := ids.Spec{Base: m.Base, Digits: m.Digits}
	if spec.Validate() != nil || m.R < 1 || m.R > maxR || !spec.WellFormed(m.Self.ID) {
		return false
	}
	for _, r := range m.Rows {
		if r.Level < 0 || r.Level >= spec.Digits || !spec.WellFormed(r.E.ID) {
			return false
		}
	}
	return true
}

// validWalkLocked reports whether a publish or locate hop can be routed
// here: a table is installed, GUID and Key are well-formed for its spec, and
// 0 ≤ level ≤ Digits. The caller holds n.mu, so a concurrent re-install
// cannot change the spec between the check and the routing decision.
func (n *Node) validWalkLocked(guid, key ids.ID, level int) bool {
	if n.table == nil {
		return false
	}
	spec := ids.Spec{Base: n.table.Base(), Digits: n.table.Levels()}
	return spec.WellFormed(guid) && spec.WellFormed(key) && level >= 0 && level <= spec.Digits
}

// install provisions identity, routing table and the cluster address book,
// one client per endpoint; a re-install closes the previous book's clients.
func (n *Node) install(m *wire.ClusterInstall) {
	spec := ids.Spec{Base: m.Base, Digits: m.Digits}
	t := route.New(spec, m.Self.ID, m.Self.Addr, m.R)
	for _, r := range m.Rows {
		t.Add(r.Level, r.E)
	}
	peers := make(map[netsim.Addr]*wire.Client, len(m.Endpoints))
	for _, ep := range m.Endpoints {
		peers[ep.Addr] = wire.NewClient(ep.HostPort) // dials on first use
	}
	n.mu.Lock()
	n.self = m.Self
	n.table = t
	n.peers, peers = peers, n.peers
	n.mu.Unlock()
	closeAll(peers)
}

// closePeers releases the clients of the installed endpoint book.
func (n *Node) closePeers() {
	n.mu.Lock()
	peers := n.peers
	n.peers = nil
	n.mu.Unlock()
	closeAll(peers)
}

func closeAll(peers map[netsim.Addr]*wire.Client) {
	for _, c := range peers {
		c.Close()
	}
}

// nextHopLocked makes the local surrogate-routing decision for key with
// `level` digits already resolved — the daemon-side twin of the core's
// native scheme: at each level, scan digits in surrogate order from the
// key's own digit and take the first slot with any entry; the own ID
// resolving the digit means "stay put, next level"; running out of levels
// (or an empty row, impossible with self present) means this node is the
// key's root.
func (n *Node) nextHopLocked(key ids.ID, level int) (next route.Entry, nextLevel int, terminal bool) {
	base := n.table.Base()
	for l := level; l < n.table.Levels(); l++ {
		want := int(key.Digit(l))
		var set []route.Entry
		for i := 0; i < base; i++ {
			if s := n.table.SetView(l, ids.Digit((want+i)%base)); len(s) > 0 {
				set = s
				break
			}
		}
		if len(set) == 0 {
			return route.Entry{}, 0, true
		}
		if set[0].ID.Equal(n.self.ID) {
			continue // digit resolved by staying put
		}
		return set[0], l + 1, false
	}
	return route.Entry{}, 0, true
}

// publish handles one hop of a publish walk: deposit the pointer, then
// either terminate (this node is the root) or forward and relay the
// confirmation back down the chain. A zero Root in the reply reports a
// broken walk; a malformed hop gets no reply (nil).
func (n *Node) publish(m *wire.ClusterPublish) wire.Msg {
	n.mu.Lock()
	if !n.validWalkLocked(m.GUID, m.Key, m.Level) {
		n.mu.Unlock()
		return nil
	}
	n.ptrs[m.GUID] = pointer{server: m.Server, addr: m.ServerAddr}
	next, level, terminal := n.nextHopLocked(m.Key, m.Level)
	self := n.self
	n.mu.Unlock()
	if terminal {
		return &wire.ClusterPubDone{Root: self.ID}
	}
	fwd := *m
	fwd.Level = level
	resp := &wire.ClusterPubDone{}
	if err := n.forward(next, &fwd, resp); err != nil {
		return &wire.ClusterPubDone{}
	}
	return resp
}

// locate handles one hop of a locate walk: answer from the served set or the
// pointer map, or forward toward the key's root. Reaching the root without a
// pointer is an authoritative miss; a malformed hop gets no reply (nil).
func (n *Node) locate(m *wire.ClusterLocate) wire.Msg {
	n.mu.Lock()
	if !n.validWalkLocked(m.GUID, m.Key, m.Level) {
		n.mu.Unlock()
		return nil
	}
	if _, ok := n.served[m.GUID]; ok {
		self := n.self
		n.mu.Unlock()
		return &wire.ClusterFound{Found: true, Server: self.ID, ServerAddr: self.Addr, Hops: m.Hops}
	}
	if p, ok := n.ptrs[m.GUID]; ok {
		n.mu.Unlock()
		// One more hop: the jump from the pointer to the server itself.
		return &wire.ClusterFound{Found: true, Server: p.server, ServerAddr: p.addr, Hops: m.Hops + 1}
	}
	next, level, terminal := n.nextHopLocked(m.Key, m.Level)
	n.mu.Unlock()
	if terminal {
		return &wire.ClusterFound{Hops: m.Hops}
	}
	fwd := *m
	fwd.Level, fwd.Hops = level, m.Hops+1
	resp := &wire.ClusterFound{}
	if err := n.forward(next, &fwd, resp); err != nil {
		return &wire.ClusterFound{}
	}
	return resp
}

// forward sends one walk hop to the node `to` through the client of the
// daemon hosting its overlay address.
func (n *Node) forward(to route.Entry, req, resp wire.Msg) error {
	n.mu.Lock()
	c := n.peers[to.Addr]
	n.mu.Unlock()
	if c == nil {
		return fmt.Errorf("procnode: no endpoint for overlay address %d", to.Addr)
	}
	return c.Call(to, req, resp)
}
