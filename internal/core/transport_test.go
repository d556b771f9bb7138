package core

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

// buildMeshTransport is buildMesh with an explicit transport backend.
func buildMeshTransport(t testing.TB, n int, seed int64, k TransportKind) (*Mesh, []*Node) {
	t.Helper()
	cfg := testConfig()
	cfg.Transport = k
	rng := rand.New(rand.NewSource(seed))
	space := metric.NewRing(n * 4)
	net := netsim.New(space)
	m, err := NewMesh(net, cfg)
	if err != nil {
		t.Fatalf("NewMesh(%v): %v", k, err)
	}
	t.Cleanup(func() { m.Close() })
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	nodes, _, err := m.GrowSequential(addrs, rng)
	if err != nil {
		t.Fatalf("GrowSequential(%v): %v", k, err)
	}
	return m, nodes
}

var allTransports = []TransportKind{TransportDirect, TransportLoopback, TransportTCP}

// TestDeadPeerErrorUniform pins the unified failure semantics of satellite
// transports: on every backend, probing a crashed node and probing a stale
// entry (live address, different ID) both yield a *PeerError, and the
// underlying causes agree — unreachable host vs. departed overlay node. The
// twin meshes are built from the same seed, so the scenario is identical on
// each backend.
func TestDeadPeerErrorUniform(t *testing.T) {
	for _, k := range allTransports {
		m, nodes := buildMeshTransport(t, 16, 7, k)

		victim, observer := nodes[3], nodes[5]
		ve := victim.entryFor(observer.addr)
		m.Fail(victim)

		cost := &netsim.Cost{}
		_, err := m.invoke(observer.addr, ve, msgPing, msgAck, cost, false)
		if err == nil {
			t.Fatalf("%v: probe of failed node succeeded", k)
		}
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("%v: probe error %T is not *PeerError: %v", k, err, err)
		}
		if !pe.To.ID.Equal(ve.ID) {
			t.Errorf("%v: PeerError.To = %v, want %v", k, pe.To.ID, ve.ID)
		}
		if k != TransportTCP && !errors.Is(err, netsim.ErrUnreachable) {
			// TCP reports the same failure via the simulated-network charge
			// too, so this holds there as well — but keep the assertion on
			// the deterministic backends where the cause is fully specified.
			t.Errorf("%v: cause %v, want netsim.ErrUnreachable", k, pe.Err)
		}

		// A stale entry: the address is alive but hosts a different ID.
		stale := route.Entry{ID: ids.FromDigits([]ids.Digit{1, 2, 3, 4, 5, 6}),
			Addr: nodes[8].addr}
		_, err = m.invoke(observer.addr, stale, msgPing, msgAck, cost, false)
		if err == nil {
			t.Fatalf("%v: probe of stale entry succeeded", k)
		}
		if !errors.As(err, &pe) {
			t.Fatalf("%v: stale-entry error %T is not *PeerError", k, err)
		}
		if !errors.Is(err, errDead) {
			t.Errorf("%v: stale-entry cause %v, want errDead", k, pe.Err)
		}

		// One-way sends agree with invokes.
		_, err = m.oneWayMsg(observer.addr, ve, msgPing, cost)
		if !errors.As(err, &pe) {
			t.Fatalf("%v: one-way error %T is not *PeerError", k, err)
		}
	}
}

// TestDirectLoopbackTwinIdentical builds the same mesh on the direct and
// loopback backends and requires identical message totals and identical
// publish/locate outcomes — the codec round-trip may not change behavior or
// simulated cost anywhere.
func TestDirectLoopbackTwinIdentical(t *testing.T) {
	type result struct {
		msgs    int64
		hops    []int
		founds  []bool
		removed int
	}
	run := func(k TransportKind) result {
		m, nodes := buildMeshTransport(t, 24, 11, k)
		rng := rand.New(rand.NewSource(99))
		var guids []ids.ID
		for i := 0; i < 6; i++ {
			g := testSpec.Random(rng)
			srv := nodes[i*3]
			if err := srv.Publish(g, &netsim.Cost{}); err != nil {
				t.Fatalf("%v: publish: %v", k, err)
			}
			guids = append(guids, g)
		}
		var r result
		for _, g := range guids {
			for _, qi := range []int{1, 7, 20} {
				cost := &netsim.Cost{}
				res := nodes[qi].Locate(g, cost)
				r.founds = append(r.founds, res.Found)
				r.hops = append(r.hops, res.Hops)
			}
		}
		// A leave and a sweep keep the maintenance paths in the comparison.
		if err := nodes[2].Leave(&netsim.Cost{}); err != nil {
			t.Fatalf("%v: leave: %v", k, err)
		}
		m.Fail(nodes[4])
		r.removed = m.SweepDeadAll(&netsim.Cost{})
		r.msgs = m.net.TotalMessages()
		return r
	}

	direct := run(TransportDirect)
	loop := run(TransportLoopback)
	if direct.msgs != loop.msgs {
		t.Errorf("message totals diverge: direct %d, loopback %d", direct.msgs, loop.msgs)
	}
	if direct.removed != loop.removed {
		t.Errorf("sweep removals diverge: direct %d, loopback %d", direct.removed, loop.removed)
	}
	for i := range direct.founds {
		if direct.founds[i] != loop.founds[i] || direct.hops[i] != loop.hops[i] {
			t.Errorf("locate %d diverges: direct (%v,%d) loopback (%v,%d)",
				i, direct.founds[i], direct.hops[i], loop.founds[i], loop.hops[i])
		}
	}
}

// TestTCPRejectsEventEngine pins the construction-time incompatibility: real
// sockets cannot park on virtual time.
func TestTCPRejectsEventEngine(t *testing.T) {
	space := metric.NewRing(16)
	net := netsim.New(space)
	net.AttachEngine(netsim.NewEngine(1))
	cfg := testConfig()
	cfg.Transport = TransportTCP
	if _, err := NewMesh(net, cfg); err == nil {
		t.Fatal("NewMesh accepted TCP transport with an event engine attached")
	}
}

// TestParseTransport covers the flag/environment surface.
func TestParseTransport(t *testing.T) {
	for s, want := range map[string]TransportKind{
		"":         TransportAuto,
		"auto":     TransportAuto,
		"direct":   TransportDirect,
		"loopback": TransportLoopback,
		"tcp":      TransportTCP,
	} {
		got, err := ParseTransport(s)
		if err != nil || got != want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseTransport("carrier-pigeon"); err == nil {
		t.Error("ParseTransport accepted an unknown backend")
	}
}

// TestTableBandFoldDoesNotAllocate pins the §4.2 band query on the direct
// transport: with a pre-sized response, the forward-row and backpointer
// folds are two contiguous copies and allocate nothing.
func TestTableBandFoldDoesNotAllocate(t *testing.T) {
	m, nodes := buildMeshTransport(t, 48, 71, TransportDirect)
	from, target := nodes[0], nodes[1]
	to := route.Entry{ID: target.id, Addr: target.addr}
	req := &wire.TableBandReq{Floor: 0, Fold: -1}
	resp := &wire.TableBandResp{}
	if _, err := m.invoke(from.addr, to, req, resp, nil, false); err != nil {
		t.Fatal(err)
	}
	if target.table.BackCount(0) == 0 {
		t.Fatal("target has no level-0 backpointers to fold")
	}
	resp.Entries = make([]route.Entry, 0, 2*len(resp.Entries))
	if a := testing.AllocsPerRun(100, func() {
		if _, err := m.invoke(from.addr, to, req, resp, nil, false); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("TableBandReq on the direct transport: %v allocs/op, want 0", a)
	}
}

// rawTCPExchange writes one request in the TCP transport's header format
// (see tcpTransport) on a fresh connection to the mesh's listener and
// returns the status byte, or the read error if the server dropped the
// connection without answering.
func rawTCPExchange(t *testing.T, m *Mesh, kind byte, to *Node, respType wire.Type, req wire.Msg) (byte, error) {
	t.Helper()
	conn, err := net.Dial("tcp", m.tr.(*tcpTransport).ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e wire.Enc
	e.U8(kind)
	e.Int(int(to.addr))
	e.ID(to.id)
	e.U8(byte(respType))
	if _, err := conn.Write(wire.AppendFrame(e.Bytes(), req)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var status [1]byte
	_, err = io.ReadFull(conn, status[:])
	return status[0], err
}

// rawRequest is one request for the TCP server; respType 0 sends a one-way.
type rawRequest struct {
	name     string
	respType wire.Type
	req      wire.Msg
}

// outOfRangeRequests lists well-typed requests to target whose fields lie
// outside its spec or space; peer is a live node's entry. Served, each would
// index past the routing table or the simulated space and panic the serving
// goroutine, taking the process down.
func outOfRangeRequests(target *Node, peer route.Entry) []rawRequest {
	short := ids.FromDigits([]ids.Digit{target.id.Digit(0)}) // one digit, shares the first
	// far differs from the target in the last digit only, so it would fill
	// the target's deepest slot, but sits at an address past the space.
	digits := make([]ids.Digit, testSpec.Digits)
	for i := range digits {
		digits[i] = target.id.Digit(i)
	}
	digits[len(digits)-1] = (digits[len(digits)-1] + 1) % ids.Digit(testSpec.Base)
	far := route.Entry{ID: testSpec.Make(digits), Addr: netsim.Addr(1 << 20)}
	return []rawRequest{
		{"BackAdd level past the table", 0, &wire.BackAdd{Level: 99, From: peer}},
		{"BackRemove level past the table", 0, &wire.BackRemove{Level: 99, ID: peer.ID}},
		{"MatchQueryReq negative level", wire.TMatchQueryResp, &wire.MatchQueryReq{Origin: peer.ID, Level: -1}},
		{"MatchQueryReq digit past the base", wire.TMatchQueryResp, &wire.MatchQueryReq{Origin: target.id, Level: 0, Digit: 200}},
		{"TableBandReq negative floor", wire.TTableBandResp, &wire.TableBandReq{Floor: -1, Fold: -1}},
		{"JoinSnapshotReq negative pin level", wire.TJoinSnapshotResp, &wire.JoinSnapshotReq{NewID: peer.ID, NewAddr: peer.Addr, PinLevel: -1}},
		{"LeaveNotify negative level", 0, &wire.LeaveNotify{Leaver: peer.ID, Level: -1, Replacements: []route.Entry{peer}}},
		{"McastNotify negative slot level", 0, &wire.McastNotify{Me: peer, Slots: []wire.Slot{{Level: -1}}}},
		{"ShareReq short ID", wire.TShareResp, &wire.ShareReq{Entries: []route.Entry{{ID: short, Addr: peer.Addr}}}},
		{"ShareReq address past the space", wire.TShareResp, &wire.ShareReq{Entries: []route.Entry{far}}},
		{"NodeDeleted short ID", 0, &wire.NodeDeleted{ID: short}},
		{"DropLinks short ID", 0, &wire.DropLinks{ID: short}},
		{"PublishReq short GUID", wire.TAck, &wire.PublishReq{GUID: short, Adopt: true}},
	}
}

// TestTCPServerFailsClosed sends frames dispatch cannot serve straight to a
// mesh's TCP listener: a typed-response request naming the wrong response
// type, the same request as a one-way, request types with no handler, and
// well-typed requests with out-of-range fields. Each must cost only its own
// connection — never a panic that takes the process down — and the mesh
// must keep serving afterwards.
func TestTCPServerFailsClosed(t *testing.T) {
	m, nodes := buildMeshTransport(t, 16, 5, TransportTCP)
	target := nodes[3]
	match := &wire.MatchQueryReq{Origin: target.id, Level: 0, Digit: 1}

	// The header format is right: a well-formed invoke is answered.
	if status, err := rawTCPExchange(t, m, 0, target, wire.TMatchQueryResp, match); err != nil || status != 0 {
		t.Fatalf("well-formed MatchQueryReq: status %d, err %v", status, err)
	}
	for _, c := range []struct {
		name     string
		kind     byte
		respType wire.Type
		req      wire.Msg
	}{
		{"typed request, Ack response", 0, wire.TAck, match},
		{"typed request as one-way", 1, 0, match},
		{"response type as request", 0, wire.TAck, &wire.MatchQueryResp{}},
		{"cluster message", 1, 0, &wire.ClusterAck{}},
	} {
		if status, err := rawTCPExchange(t, m, c.kind, target, c.respType, c.req); err == nil {
			t.Errorf("%s: answered with status %d, want the connection dropped", c.name, status)
		}
	}

	for _, c := range outOfRangeRequests(target, nodes[5].entryFor(target.addr)) {
		t.Run(c.name, func(t *testing.T) {
			kind := byte(0)
			if c.respType == 0 {
				kind = 1
			}
			if status, err := rawTCPExchange(t, m, kind, target, c.respType, c.req); err == nil {
				t.Errorf("answered with status %d, want the connection dropped", status)
			}
		})
	}

	guid := testSpec.Hash("after-bad-frames")
	if err := nodes[0].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	if res := nodes[9].Locate(guid, nil); !res.Found {
		t.Fatal("mesh stopped serving after rejecting bad frames")
	}
}

// TestDispatchReportsUnservable sweeps every wire type as a request, sent as
// a one-way and as a call expecting each response type. dispatch must report
// every combination it cannot serve instead of panicking, and must do so
// before touching the node: on a zero Node, a combination it accepts gets
// past the check and may only then trip over the empty node. Each request
// type must take one of three shapes — no handler (every combination
// reported), an untyped handler (nothing reported) or a typed handler
// (exactly one response type accepted, one-ways reported). The TCP server
// must drop the connection on every combination dispatch reports.
func TestDispatchReportsUnservable(t *testing.T) {
	var types []wire.Type
	for ty := 0; ty < 256; ty++ {
		if wire.New(wire.Type(ty)) != nil {
			types = append(types, wire.Type(ty))
		}
	}
	report := func(req, resp wire.Msg) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, mistyped := r.(*runtime.TypeAssertionError); mistyped {
					t.Errorf("%T with %T: dispatch panicked on a mistyped response: %v", req, resp, r)
				}
				err = nil // past the check: the zero node is not servable
			}
		}()
		return (&Node{}).dispatch(req, resp, nil)
	}
	type combo struct {
		req  wire.Type
		resp wire.Type // 0 with oneWay
		one  bool
	}
	var rejected []combo
	handled, typed := 0, 0
	for _, rq := range types {
		var accepted []wire.Type
		oneWayOK := report(wire.New(rq), nil) == nil
		if !oneWayOK {
			rejected = append(rejected, combo{req: rq, one: true})
		}
		for _, rs := range types {
			if err := report(wire.New(rq), wire.New(rs)); err != nil {
				if !errors.Is(err, errUnservable) {
					t.Errorf("%v with %v: report %v is not errUnservable", rq, rs, err)
				}
				rejected = append(rejected, combo{req: rq, resp: rs})
				continue
			}
			accepted = append(accepted, rs)
		}
		switch {
		case !oneWayOK && len(accepted) == 0:
		case oneWayOK && len(accepted) == len(types):
			handled++
		case !oneWayOK && len(accepted) == 1:
			handled++
			typed++
		default:
			t.Errorf("%v: one-way accepted %v, response types accepted %v: no handler shape", rq, oneWayOK, accepted)
		}
	}
	if handled == 0 || typed == 0 {
		t.Fatalf("dispatch handles %d types, %d typed: sweep is vacuous", handled, typed)
	}

	t.Logf("%d types, %d handled (%d typed), %d rejected combinations", len(types), handled, typed, len(rejected))
	m, nodes := buildMeshTransport(t, 8, 5, TransportTCP)
	target := nodes[3]
	for _, c := range rejected {
		kind := byte(0)
		if c.one {
			kind = 1
		}
		if status, err := rawTCPExchange(t, m, kind, target, c.resp, wire.New(c.req)); err == nil {
			t.Errorf("%v (one-way %v, response %v): reported by dispatch, answered %d by the TCP server",
				c.req, c.one, c.resp, status)
		}
	}
	guid := testSpec.Hash("after-unservable-sweep")
	if err := nodes[0].Publish(guid, nil); err != nil {
		t.Fatal(err)
	}
	if res := nodes[6].Locate(guid, nil); !res.Found {
		t.Fatal("mesh stopped serving after the unservable sweep")
	}
}

// FuzzTCPServe feeds arbitrary decoded envelopes through the TCP server's
// handler on a live 16-node mesh, the way FuzzServe covers the socket layer
// and FuzzHandle the daemon: whatever the request, addressed node, call kind
// and response type, the handler answers, reports gone or drops — it never
// panics the serving goroutine. The mesh persists across inputs, so requests
// act on whatever state earlier ones left.
func FuzzTCPServe(f *testing.F) {
	m, nodes := buildMeshTransport(f, 16, 5, TransportTCP)
	tr := m.tr.(*tcpTransport)
	target, peer := nodes[3], nodes[5].entryFor(nodes[3].addr)
	guid := testSpec.Hash("fuzz-tcp-serve")
	seeds := []rawRequest{
		{"", wire.TMatchQueryResp, &wire.MatchQueryReq{Origin: peer.ID, Level: 1, Digit: 2}},
		{"", wire.TTableBandResp, &wire.TableBandReq{Floor: 0, Fold: -1}},
		{"", wire.TShareResp, &wire.ShareReq{Entries: []route.Entry{peer}}},
		{"", wire.TVerifyResp, &wire.VerifyReq{GUID: guid}},
		{"", wire.TAck, &wire.PublishReq{GUID: guid, Adopt: true, Salts: []int{0}}},
		{"", wire.TJoinSnapshotResp, &wire.JoinSnapshotReq{NewID: peer.ID, NewAddr: peer.Addr, PinLevel: 1}},
		{"", 0, &wire.BackAdd{Level: 1, From: peer}},
		{"", 0, &wire.BackRemove{Level: 1, ID: peer.ID}},
		{"", 0, &wire.McastNotify{Me: peer, Slots: []wire.Slot{{Level: 0, Digit: peer.ID.Digit(0)}}}},
		{"", 0, &wire.LeaveNotify{Leaver: peer.ID, Level: 0, Replacements: []route.Entry{peer}}},
		{"", 0, &wire.NodeDeleted{ID: peer.ID}},
		{"", 0, &wire.DropLinks{ID: peer.ID}},
		{"", wire.TAck, &wire.Ping{}},
	}
	for _, c := range append(seeds, outOfRangeRequests(target, peer)...) {
		f.Add(uint8(3), c.respType != 0, uint8(c.respType), wire.AppendFrame(nil, c.req))
	}
	f.Fuzz(func(t *testing.T, to uint8, call bool, respType uint8, frame []byte) {
		msg, n, err := wire.DecodeFrame(frame)
		if err != nil || n != len(frame) {
			return
		}
		dst := nodes[int(to)%len(nodes)]
		tr.serve(&wire.Request{To: route.Entry{ID: dst.id, Addr: dst.addr}, Call: call,
			RespType: wire.Type(respType), Msg: msg})
	})
}
