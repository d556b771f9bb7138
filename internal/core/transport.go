package core

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// This file is the node-to-node message seam. Every remote interaction in
// the package goes through Mesh.invoke / Mesh.oneWayMsg with a typed
// internal/wire message, and a pluggable Transport decides how that message
// travels:
//
//   - TransportDirect (default): the historical shared-memory path. Costs are
//     charged via netsim exactly as before and the peer-side work runs as a
//     direct method call; behavior and simulated-cost accounting are
//     byte-identical to the pre-transport code.
//   - TransportLoopback: identical charging, but every request and response
//     round-trips through the wire codec (encode -> decode into a fresh
//     struct) before the peer sees it, so running the full test suite under
//     it proves every RPC survives serialization.
//   - TransportTCP: every message additionally crosses a real socket through
//     a per-mesh loopback listener, on internal/wire's socket layer (the
//     request envelope, server loop and pooled client the tapestry-node
//     daemons use too). The envelope names the target node, and the server
//     answers "gone" for a node that is not there, which the sender maps
//     onto the same PeerError as the other backends. Simulated costs are
//     still charged on the caller (the cost model is the simulator's, not
//     the kernel's); peer-side work triggered by a handler is not charged,
//     since a *netsim.Cost cannot cross a socket. Incompatible with the
//     virtual-time event engine, whose clock only advances between
//     simulated sends.
//
// Division of labor: messages whose peer-side effect is a state mutation or a
// data-carrying response (table-band queries, join snapshots, backpointer
// registrations, leave notifications, share offers, replica verification)
// are executed by (*Node).dispatch on the receiving node. Walk-step messages
// (RouteStep, LocateStep, PtrForward, LocalStep, McastStep, CaravanStep) are
// dispatch no-ops: the sender performs each node's step in-process after the
// transport delivers the hop. Every key-directed walk — route, publish,
// unpublish, locate, pointer re-route, stub-local — takes its hops through
// one driver, (*Node).walk in walk.go, which stamps the step's per-hop
// fields; only the multicast tree and the batched republish caravan fan out
// on their own. This keeps the iterative walk structure — and its carefully
// tuned allocation behavior — intact while the messages themselves document
// and (under loopback/TCP) exercise the full wire protocol.

// TransportKind selects the message-transport backend of a Mesh.
type TransportKind int

const (
	// TransportAuto defers to the TAPESTRY_TRANSPORT environment variable
	// (direct | loopback | tcp), defaulting to TransportDirect.
	TransportAuto TransportKind = iota
	// TransportDirect is the in-memory direct-dispatch backend.
	TransportDirect
	// TransportLoopback round-trips every message through the wire codec.
	TransportLoopback
	// TransportTCP sends every message through a real localhost socket.
	TransportTCP
)

func (k TransportKind) String() string {
	switch k {
	case TransportAuto:
		return "auto"
	case TransportDirect:
		return "direct"
	case TransportLoopback:
		return "loopback"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(k))
	}
}

// ParseTransport maps a flag/environment string onto a TransportKind.
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "", "auto":
		return TransportAuto, nil
	case "direct":
		return TransportDirect, nil
	case "loopback":
		return TransportLoopback, nil
	case "tcp":
		return TransportTCP, nil
	default:
		return TransportAuto, fmt.Errorf("core: unknown transport %q (want direct, loopback or tcp)", s)
	}
}

// transportEnv is the environment override consulted by TransportAuto.
const transportEnv = "TAPESTRY_TRANSPORT"

// resolveTransportKind folds the environment into an Auto kind.
func resolveTransportKind(k TransportKind) (TransportKind, error) {
	if k != TransportAuto {
		return k, nil
	}
	k, err := ParseTransport(os.Getenv(transportEnv))
	if err != nil {
		return TransportAuto, err
	}
	if k == TransportAuto {
		k = TransportDirect
	}
	return k, nil
}

// PeerError is the one typed error every transport backend maps a failed
// delivery onto: the host was unreachable, the overlay node is gone, the
// address hosts a different ID now, or (under TCP) the socket failed. All
// backends agree on when it is returned — a walk's failed-hop handling
// behaves identically everywhere.
type PeerError struct {
	To  route.Entry // the stale entry that was dialed
	Err error       // underlying cause (errDead, netsim.ErrUnreachable, an I/O error)
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("core: peer %v@%d unavailable: %v", e.To.ID, e.To.Addr, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Transport delivers typed wire messages between overlay nodes. Invoke is a
// request/response exchange (hop marks a routing hop for cost accounting);
// OneWay is fire-and-forget. Both charge the simulated network, resolve the
// live peer, run its dispatch handler, and return the peer for the walk
// drivers' in-process continuation. Errors are always *PeerError.
type Transport interface {
	Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error)
	OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error)
	Close() error
}

// Shared field-less messages: safe for concurrent use on every backend
// because encoding and decoding them is a no-op.
var (
	msgPing      = &wire.Ping{}
	msgAck       = &wire.Ack{}
	msgReacquire = &wire.ReacquireReq{}
)

// msgFrames is a per-operation bundle of recyclable message structs. Walk
// drivers take one from the mesh pool (getFrames), fill the fields of the
// message they are about to send, and return the bundle when the operation
// completes. A bundle is never handed to a nested operation — anything that
// starts its own walk takes its own bundle — so a frame's contents are stable
// for the duration of one Invoke/OneWay call.
type msgFrames struct {
	route      wire.RouteStep
	match      wire.MatchQueryReq
	matchResp  wire.MatchQueryResp
	share      wire.ShareReq
	shareResp  wire.ShareResp
	locate     wire.LocateStep
	verify     wire.VerifyReq
	verifyResp wire.VerifyResp
	del        wire.DeleteBack
	backAdd    wire.BackAdd
	backRemove wire.BackRemove
	mcast      wire.McastStep
	notify     wire.McastNotify
	joinReq    wire.JoinSnapshotReq
	joinResp   wire.JoinSnapshotResp
	caravan    wire.CaravanStep
	leave      wire.LeaveNotify
	deleted    wire.NodeDeleted
	drop       wire.DropLinks
	local      wire.LocalStep
	fwd        wire.PtrForward
	pub        wire.PublishReq
}

func (m *Mesh) getFrames() *msgFrames {
	if f, ok := m.framePool.Get().(*msgFrames); ok {
		return f
	}
	return &msgFrames{}
}

func (m *Mesh) putFrames(f *msgFrames) { m.framePool.Put(f) }

// invoke sends a request/response pair to the entry's node via the mesh
// transport.
func (m *Mesh) invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	return m.tr.Invoke(from, to, req, resp, cost, hop)
}

// oneWayMsg sends a fire-and-forget message to the entry's node via the mesh
// transport.
func (m *Mesh) oneWayMsg(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	return m.tr.OneWay(from, to, msg, cost)
}

// newTransport builds the backend for a resolved (non-Auto) kind.
func newTransport(m *Mesh, k TransportKind) (Transport, error) {
	switch k {
	case TransportDirect:
		return directTransport{m}, nil
	case TransportLoopback:
		return &loopbackTransport{m: m}, nil
	case TransportTCP:
		return newTCPTransport(m)
	default:
		return nil, fmt.Errorf("core: cannot build transport %v", k)
	}
}

// errUnservable reports a request dispatch has no handler for, a typed
// request whose response is missing or of another type, or a request with a
// field outside the target's spec or space. In-process senders never build
// one; the TCP server drops the connection on it.
var errUnservable = errors.New("core: request cannot be dispatched")

// dispatch applies req's peer-side effect at the target node, filling resp
// for request/response messages (resp is nil for one-ways). It runs after the
// transport has charged the exchange and resolved the live target — the same
// point where the pre-transport code performed these mutations inline at the
// call site. cost is the operation's meter on direct/loopback and nil on the
// TCP server side. A request it cannot serve is reported before any lock is
// taken or any state changes: first a missing or mistyped response, then any
// level, digit, floor, ID or address that would index past the target's
// routing table or the simulated space.
func (target *Node) dispatch(req, resp wire.Msg, cost *netsim.Cost) error {
	switch q := req.(type) {
	case *wire.Ping, *wire.Ack, *wire.ReacquireReq,
		*wire.RouteStep, *wire.LocateStep, *wire.LocalStep,
		*wire.McastStep, *wire.CaravanStep, *wire.PtrForward, *wire.DeleteBack:
		// Walk steps and probes: the per-node work is performed by the
		// driving walk loop in-process (see the file comment).
	case *wire.MatchQueryReq:
		r, ok := resp.(*wire.MatchQueryResp)
		if !ok || !target.validSlot(q.Level, q.Digit) || !target.validID(q.Origin) {
			return unservable(req, resp)
		}
		r.Entries = r.Entries[:0]
		target.mu.Lock()
		if ids.CommonPrefixLen(target.id, q.Origin) >= q.Level {
			r.Entries = append(r.Entries, target.table.Set(q.Level, q.Digit)...)
		}
		target.mu.Unlock()
	case *wire.TableBandReq:
		r, ok := resp.(*wire.TableBandResp)
		if !ok || q.Floor < 0 || q.Floor > target.mesh.cfg.Spec.Digits {
			return unservable(req, resp)
		}
		r.Entries = r.Entries[:0]
		target.mu.Lock()
		top := target.table.Levels()
		if q.Fold >= 0 && q.Fold < top {
			top = q.Fold
		}
		if q.Floor < top {
			// The [floor, top) row band and its backpointers are each one
			// contiguous copy under the CSR layout.
			r.Entries = append(r.Entries, target.table.RangeView(q.Floor, top)...)
			r.Entries = target.table.AppendBacks(r.Entries, q.Floor, top)
		}
		target.mu.Unlock()
	case *wire.ShareReq:
		r, ok := resp.(*wire.ShareResp)
		if !ok || !target.validEntries(q.Entries) {
			return unservable(req, resp)
		}
		r.Adopted = target.considerEntries(q.Entries, cost)
	case *wire.VerifyReq:
		r, ok := resp.(*wire.VerifyResp)
		if !ok || !target.validID(q.GUID) {
			return unservable(req, resp)
		}
		target.mu.Lock()
		r.Serves = target.published[q.GUID]
		target.mu.Unlock()
	case *wire.PublishReq:
		if !target.validID(q.GUID) {
			return unservable(req, resp)
		}
		target.handlePublishReq(q, cost)
	case *wire.JoinSnapshotReq:
		r, ok := resp.(*wire.JoinSnapshotResp)
		if !ok || !target.validLevel(q.PinLevel) || !target.validEntry(route.Entry{ID: q.NewID, Addr: q.NewAddr}) {
			return unservable(req, resp)
		}
		target.joinSnapshot(q, r, cost)
	case *wire.BackAdd:
		if !target.validLevel(q.Level) || !target.validEntry(q.From) {
			return unservable(req, resp)
		}
		target.mu.Lock()
		target.table.AddBack(q.Level, q.From)
		target.mu.Unlock()
	case *wire.BackRemove:
		if !target.validLevel(q.Level) || !target.validID(q.ID) {
			return unservable(req, resp)
		}
		target.mu.Lock()
		target.table.RemoveBack(q.Level, q.ID)
		target.mu.Unlock()
	case *wire.McastNotify:
		if !target.validEntry(q.Me) {
			return unservable(req, resp)
		}
		for _, s := range q.Slots {
			if !target.validSlot(s.Level, s.Digit) {
				return unservable(req, resp)
			}
		}
		for _, s := range q.Slots {
			target.addNeighborAndNotify(s.Level, q.Me, cost)
		}
	case *wire.LeaveNotify:
		if !target.validLevel(q.Level) || !target.validID(q.Leaver) || !target.validEntries(q.Replacements) {
			return unservable(req, resp)
		}
		target.onPeerLeaving(q.Leaver, q.Level, q.Replacements, cost)
	case *wire.NodeDeleted:
		if !target.validID(q.ID) {
			return unservable(req, resp)
		}
		target.onPeerDeleted(q.ID, cost)
	case *wire.DropLinks:
		if !target.validID(q.ID) {
			return unservable(req, resp)
		}
		target.mu.Lock()
		target.table.Remove(q.ID)
		target.mu.Unlock()
	default:
		return unservable(req, resp)
	}
	return nil
}

func unservable(req, resp wire.Msg) error {
	return fmt.Errorf("%w: %T with response %T", errUnservable, req, resp)
}

// validLevel reports whether l is a routing-table level of n's spec.
func (n *Node) validLevel(l int) bool { return l >= 0 && l < n.mesh.cfg.Spec.Digits }

// validSlot reports whether (level, digit) names a routing-table slot.
func (n *Node) validSlot(level int, digit ids.Digit) bool {
	return n.validLevel(level) && int(digit) < n.mesh.cfg.Spec.Base
}

// validID reports whether id is in n's namespace.
func (n *Node) validID(id ids.ID) bool { return n.mesh.cfg.Spec.WellFormed(id) }

// validEntry reports whether e names an ID in n's namespace at an address
// of the simulated space.
func (n *Node) validEntry(e route.Entry) bool {
	return n.validID(e.ID) && e.Addr >= 0 && int(e.Addr) < len(n.mesh.byAddr)
}

func (n *Node) validEntries(es []route.Entry) bool {
	for _, e := range es {
		if !n.validEntry(e) {
			return false
		}
	}
	return true
}

// mustDispatch is dispatch for the in-process backends, whose senders never
// build a request dispatch cannot serve: such a request is a bug.
func mustDispatch(target *Node, req, resp wire.Msg, cost *netsim.Cost) {
	if err := target.dispatch(req, resp, cost); err != nil {
		panic(err)
	}
}

// directTransport is the historical shared-memory path: charge, resolve,
// direct method dispatch. Zero serialization, zero allocation.
type directTransport struct{ m *Mesh }

func (t directTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	target, err := t.m.rpc(from, to, cost, hop)
	if err != nil {
		return nil, err
	}
	mustDispatch(target, req, resp, cost)
	return target, nil
}

func (t directTransport) OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	target, err := t.m.oneWay(from, to, cost)
	if err != nil {
		return nil, err
	}
	mustDispatch(target, msg, nil, cost)
	return target, nil
}

func (t directTransport) Close() error { return nil }

// loopbackTransport charges and resolves exactly like direct, but the request
// is encoded and decoded into a fresh struct before the peer dispatches it,
// and the response is encoded by the peer and decoded back into the caller's
// struct. A codec defect anywhere is a loud panic under the test suite rather
// than silent state corruption.
type loopbackTransport struct {
	m    *Mesh
	pool sync.Pool // *loopScratch
}

type loopScratch struct {
	buf []byte
}

func (t *loopbackTransport) getScratch() *loopScratch {
	if s, ok := t.pool.Get().(*loopScratch); ok {
		return s
	}
	return &loopScratch{}
}

// roundTrip encodes m and decodes it into a fresh struct of the same type.
func (t *loopbackTransport) roundTrip(s *loopScratch, m wire.Msg) wire.Msg {
	s.buf = wire.AppendFrame(s.buf[:0], m)
	out, n, err := wire.DecodeFrame(s.buf)
	if err != nil || n != len(s.buf) {
		panic(fmt.Sprintf("core: loopback codec round-trip of %T failed: consumed %d/%d bytes, err=%v", m, n, len(s.buf), err))
	}
	return out
}

func (t *loopbackTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	target, err := t.m.rpc(from, to, cost, hop)
	if err != nil {
		return nil, err
	}
	s := t.getScratch()
	wireReq := t.roundTrip(s, req)
	wireResp := wire.New(resp.WireType())
	mustDispatch(target, wireReq, wireResp, cost)
	s.buf = wire.AppendFrame(s.buf[:0], wireResp)
	if _, err := wire.DecodeFrameInto(s.buf, resp); err != nil {
		panic(fmt.Sprintf("core: loopback codec response round-trip of %T failed: %v", wireResp, err))
	}
	t.pool.Put(s)
	return target, nil
}

func (t *loopbackTransport) OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	target, err := t.m.oneWay(from, to, cost)
	if err != nil {
		return nil, err
	}
	s := t.getScratch()
	wireMsg := t.roundTrip(s, msg)
	t.pool.Put(s)
	mustDispatch(target, wireMsg, nil, cost)
	return target, nil
}

func (t *loopbackTransport) Close() error { return nil }

// tcpTransport routes every message through a real localhost TCP listener
// owned by the mesh, using internal/wire's socket layer: one pooled client
// for the sending side, and the envelope's addressed node resolved on the
// serving side.
type tcpTransport struct {
	m      *Mesh
	ln     net.Listener
	client *wire.Client
	served chan struct{} // closed once wire.Serve and its connections are done
	closed atomic.Bool
}

func newTCPTransport(m *Mesh) (*tcpTransport, error) {
	if m.net.Engine() != nil {
		return nil, errors.New("core: the TCP transport is incompatible with the virtual-time event engine (real sockets cannot park on simulated time)")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: tcp transport listener: %w", err)
	}
	t := &tcpTransport{m: m, ln: ln, client: wire.NewClient(ln.Addr().String()), served: make(chan struct{})}
	go func() {
		_ = wire.Serve(ln, t.serve)
		close(t.served)
	}()
	return t, nil
}

// serve is the server half: a missing node, or a dead node for a call, is
// gone; a frame dispatch cannot serve drops the connection.
func (t *tcpTransport) serve(r *wire.Request) (resp wire.Msg, gone, drop bool) {
	target := t.m.NodeAt(r.To.Addr)
	live := target != nil && target.id.Equal(r.To.ID)
	if live && r.Call {
		target.mu.Lock()
		live = target.state != stateDead
		target.mu.Unlock()
	}
	if !live {
		return nil, true, false
	}
	if r.Call {
		if resp = wire.New(r.RespType); resp == nil {
			return nil, false, true
		}
	}
	// A *netsim.Cost cannot cross a socket: peer-side work runs uncharged
	// here (see the file comment).
	if err := target.dispatch(r.Msg, resp, nil); err != nil {
		return nil, false, true
	}
	return resp, false, false
}

func (t *tcpTransport) Invoke(from netsim.Addr, to route.Entry, req, resp wire.Msg, cost *netsim.Cost, hop bool) (*Node, error) {
	if err := t.m.net.Send(from, to.Addr, cost, hop); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	if err := t.client.Call(to, req, resp); err != nil {
		return nil, peerError(to, err)
	}
	// Response leg, charged exactly where the direct path charges it: only
	// after the peer proved live.
	_ = t.m.net.Send(to.Addr, from, cost, false)
	return t.resolve(to)
}

func (t *tcpTransport) OneWay(from netsim.Addr, to route.Entry, msg wire.Msg, cost *netsim.Cost) (*Node, error) {
	if err := t.m.net.Send(from, to.Addr, cost, false); err != nil {
		return nil, &PeerError{To: to, Err: err}
	}
	if err := t.client.Call(to, msg, nil); err != nil {
		return nil, peerError(to, err)
	}
	return t.resolve(to)
}

// peerError maps a failed exchange onto the transports' one error: a gone
// reply is a departed node, anything else a socket failure.
func peerError(to route.Entry, err error) error {
	if errors.Is(err, wire.ErrGone) {
		err = errDead
	}
	return &PeerError{To: to, Err: err}
}

// resolve returns the live node the delivered entry names.
func (t *tcpTransport) resolve(to route.Entry) (*Node, error) {
	target := t.m.NodeAt(to.Addr)
	if target == nil || !target.id.Equal(to.ID) {
		return nil, &PeerError{To: to, Err: errDead}
	}
	return target, nil
}

// Close stops the listener and the client, then waits until the accept loop
// and every connection goroutine have exited.
func (t *tcpTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	err := t.ln.Close()
	t.client.Close()
	<-t.served
	return err
}
