package procnode

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
	"tapestry/internal/wire"
)

var unitSpec = ids.Spec{Base: 4, Digits: 3}

// unitInstall is a well-formed install for unitSpec with no endpoint book,
// so any forwarded hop fails at once instead of dialing out.
func unitInstall() *wire.ClusterInstall {
	return &wire.ClusterInstall{
		Base: unitSpec.Base, Digits: unitSpec.Digits, R: 2,
		Self: route.Entry{ID: unitSpec.Make([]ids.Digit{1, 2, 3}), Addr: 1},
		Rows: []wire.LeveledEntry{
			{Level: 0, E: route.Entry{ID: unitSpec.Make([]ids.Digit{3, 0, 0}), Addr: 2, Distance: 1}},
			{Level: 1, E: route.Entry{ID: unitSpec.Make([]ids.Digit{1, 0, 2}), Addr: 3, Distance: 2}},
		},
	}
}

func TestInstallRejectsMalformed(t *testing.T) {
	short := ids.FromDigits([]ids.Digit{1, 2})
	cases := map[string]func(m *wire.ClusterInstall){
		"R=0":              func(m *wire.ClusterInstall) { m.R = 0 },
		"huge R":           func(m *wire.ClusterInstall) { m.R = 1 << 20 },
		"base 1":           func(m *wire.ClusterInstall) { m.Base = 1 },
		"zero digits":      func(m *wire.ClusterInstall) { m.Digits = 0 },
		"short self":       func(m *wire.ClusterInstall) { m.Self.ID = short },
		"self digit>base":  func(m *wire.ClusterInstall) { m.Self.ID = ids.FromDigits([]ids.Digit{1, 2, 4}) },
		"row level -1":     func(m *wire.ClusterInstall) { m.Rows[0].Level = -1 },
		"row level=digits": func(m *wire.ClusterInstall) { m.Rows[0].Level = unitSpec.Digits },
		"short row id":     func(m *wire.ClusterInstall) { m.Rows[1].E.ID = short },
		"row digit>base":   func(m *wire.ClusterInstall) { m.Rows[1].E.ID = ids.FromDigits([]ids.Digit{1, 9, 0}) },
		"digits past spec": func(m *wire.ClusterInstall) { m.Digits = 65 },
	}
	for name, mutate := range cases {
		n := New()
		m := unitInstall()
		mutate(m)
		if resp := n.handle(m); resp != nil {
			t.Errorf("%s: install accepted (%T)", name, resp)
		}
		if n.table != nil {
			t.Errorf("%s: rejected install still provisioned a table", name)
		}
	}
	if resp := New().handle(unitInstall()); resp == nil {
		t.Fatal("well-formed install rejected")
	}
}

func TestWalksRejectMalformed(t *testing.T) {
	guid := unitSpec.Make([]ids.Digit{0, 1, 2})
	pub := func(g, key ids.ID, level int) wire.Msg {
		return &wire.ClusterPublish{GUID: g, Key: key, Server: guid, Level: level}
	}
	loc := func(g, key ids.ID, level int) wire.Msg {
		return &wire.ClusterLocate{GUID: g, Key: key, Level: level}
	}
	walks := []func(g, key ids.ID, level int) wire.Msg{pub, loc}
	n := New()
	for _, mk := range walks {
		if resp := n.handle(mk(guid, guid, 0)); resp != nil {
			t.Errorf("%T before any install answered %T", mk(guid, guid, 0), resp)
		}
	}
	if n.handle(unitInstall()) == nil {
		t.Fatal("install rejected")
	}
	bad := []struct {
		name   string
		g, key ids.ID
		level  int
	}{
		{"short guid", ids.FromDigits([]ids.Digit{0, 1}), guid, 0},
		{"short key", guid, ids.FromDigits([]ids.Digit{1}), 0},
		{"long key", guid, ids.FromDigits([]ids.Digit{1, 2, 3, 0}), 0},
		{"key digit>base", guid, ids.FromDigits([]ids.Digit{1, 2, 7}), 0},
		{"level -1", guid, guid, -1},
		{"level past digits", guid, guid, unitSpec.Digits + 1},
	}
	for _, mk := range walks {
		for _, c := range bad {
			if resp := n.handle(mk(c.g, c.key, c.level)); resp != nil {
				t.Errorf("%T %s: answered %T", mk(c.g, c.key, c.level), c.name, resp)
			}
		}
		if resp := n.handle(mk(guid, guid, unitSpec.Digits)); resp == nil {
			t.Errorf("%T well-formed at level Digits: rejected", mk(guid, guid, 0))
		}
	}
}

// serveDaemon starts a daemon on a loopback listener for the test's
// lifetime and returns its host:port.
func serveDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go New().Serve(ln)
	return ln.Addr().String()
}

// call sends one request addressed to node `to` on a fresh client and
// returns the reply, or nil if the daemon dropped the connection instead.
func call(t *testing.T, hp string, to route.Entry, req wire.Msg) wire.Msg {
	t.Helper()
	c := wire.NewClient(hp)
	defer c.Close()
	var resp wire.Msg
	switch req.(type) {
	case *wire.ClusterPublish:
		resp = &wire.ClusterPubDone{}
	case *wire.ClusterLocate:
		resp = &wire.ClusterFound{}
	default:
		resp = &wire.ClusterAck{}
	}
	if err := c.Call(to, req, resp); err != nil {
		return nil
	}
	return resp
}

// TestServeConnDropsBadFrame sends malformed frames over a real socket: each
// costs only its own connection, and the daemon keeps answering well-formed
// requests.
func TestServeConnDropsBadFrame(t *testing.T) {
	hp := serveDaemon(t)
	self := unitInstall().Self
	bad := unitInstall()
	bad.R = 0
	if resp := call(t, hp, self, bad); resp != nil {
		t.Errorf("R=0 install answered %T", resp)
	}
	if resp := call(t, hp, self, unitInstall()); resp == nil {
		t.Fatal("daemon stopped answering after a bad install")
	}
	short := &wire.ClusterLocate{GUID: ids.FromDigits([]ids.Digit{1}), Key: ids.FromDigits([]ids.Digit{1})}
	if resp := call(t, hp, self, short); resp != nil {
		t.Errorf("short-key locate answered %T", resp)
	}
	guid := unitSpec.Make([]ids.Digit{1, 2, 3})
	resp := call(t, hp, self, &wire.ClusterLocate{GUID: guid, Key: guid})
	if _, ok := resp.(*wire.ClusterFound); !ok {
		t.Fatalf("well-formed locate after a bad one answered %T", resp)
	}
}

// FuzzHandle runs arbitrary frame sequences through validation and the
// handlers. Installs lose their endpoint book, so a forwarded hop fails at
// once instead of dialing out; the only requirement is that nothing panics.
func FuzzHandle(f *testing.F) {
	guid := unitSpec.Make([]ids.Digit{3, 0, 1})
	var seq []byte
	for _, m := range []wire.Msg{
		unitInstall(),
		&wire.ClusterServe{GUIDs: []ids.ID{guid}},
		&wire.ClusterPublish{GUID: guid, Key: guid, Server: guid},
		&wire.ClusterLocate{GUID: guid, Key: guid},
	} {
		seq = wire.AppendFrame(seq, m)
		f.Add(wire.AppendFrame(nil, m))
	}
	f.Add(seq)
	bad := unitInstall()
	bad.R = 0
	f.Add(wire.AppendFrame(nil, bad))
	f.Add(wire.AppendFrame(wire.AppendFrame(nil, unitInstall()),
		&wire.ClusterLocate{GUID: guid, Key: ids.FromDigits([]ids.Digit{1})}))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := New()
		for len(data) > 0 {
			req, k, err := wire.DecodeFrame(data)
			if err != nil || k <= 0 {
				return
			}
			data = data[k:]
			if inst, ok := req.(*wire.ClusterInstall); ok {
				inst.Endpoints = nil
			}
			n.handle(req)
		}
	})
}

// TestInProcessCluster is examples/cluster inside one test process: daemons
// on loopback listeners get their tables from a core mesh, then every
// daemon-routed publish must terminate at the mesh's surrogate for the key
// and every daemon-routed locate must name the object's true server.
func TestInProcessCluster(t *testing.T) {
	const nodes, objects, queries = 16, 12, 48
	rng := rand.New(rand.NewSource(4))
	cfg := core.DefaultConfig()
	cfg.Seed = 4
	space := metric.NewRing(nodes * 4)
	mesh, err := core.NewMesh(netsim.New(space), cfg)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, nodes)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	overlay, _, err := mesh.GrowSequential(addrs, rng)
	if err != nil {
		t.Fatal(err)
	}

	hps := make([]string, nodes)
	eps := make([]wire.Endpoint, nodes)
	for i := range hps {
		hps[i] = serveDaemon(t)
		eps[i] = wire.Endpoint{Addr: overlay[i].Addr(), HostPort: hps[i]}
	}
	spec := mesh.Spec()
	for i, on := range overlay {
		inst := &wire.ClusterInstall{
			Base: spec.Base, Digits: spec.Digits, R: cfg.R,
			Self:      entryOf(on),
			Endpoints: eps,
		}
		on.Table().ForEachNeighbor(func(l int, e route.Entry) {
			inst.Rows = append(inst.Rows, wire.LeveledEntry{Level: l, E: e})
		})
		if _, ok := call(t, hps[i], inst.Self, inst).(*wire.ClusterAck); !ok {
			t.Fatalf("install %d rejected", i)
		}
	}

	guids := make([]ids.ID, objects)
	for j := range guids {
		guids[j] = spec.Hash(fmt.Sprintf("cluster-object-%d", j))
		s := j % nodes
		if _, ok := call(t, hps[s], entryOf(overlay[s]), &wire.ClusterServe{GUIDs: guids[j : j+1]}).(*wire.ClusterAck); !ok {
			t.Fatalf("serve %d rejected", j)
		}
		resp, ok := call(t, hps[s], entryOf(overlay[s]), &wire.ClusterPublish{
			GUID: guids[j], Key: guids[j], Server: overlay[s].ID(), ServerAddr: overlay[s].Addr(),
		}).(*wire.ClusterPubDone)
		if !ok {
			t.Fatalf("publish %d: no reply", j)
		}
		root, _, err := overlay[s].SurrogateFor(guids[j], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Root.Equal(root.ID()) {
			t.Errorf("publish %d: daemon root %v, mesh surrogate %v", j, resp.Root, root.ID())
		}
	}
	for q := 0; q < queries; q++ {
		j, c := rng.Intn(objects), rng.Intn(nodes)
		f, ok := call(t, hps[c], entryOf(overlay[c]), &wire.ClusterLocate{GUID: guids[j], Key: guids[j]}).(*wire.ClusterFound)
		if !ok {
			t.Fatalf("locate %d: no reply", q)
		}
		if want := overlay[j%nodes]; !f.Found || !f.Server.Equal(want.ID()) || f.ServerAddr != want.Addr() {
			t.Errorf("locate %d of object %d from %d: found=%v server %v@%d, want %v@%d",
				q, j, c, f.Found, f.Server, f.ServerAddr, want.ID(), want.Addr())
		}
	}
}

func entryOf(n *core.Node) route.Entry { return route.Entry{ID: n.ID(), Addr: n.Addr()} }

// TestServeAnswersMisaddressedGone sends requests addressed to nodes the
// daemon does not host — an install naming another identity, and a locate
// for another ID or another address than the installed one. Each is
// answered gone, not acted on, and the daemon keeps serving its own node on
// the same connection.
func TestServeAnswersMisaddressedGone(t *testing.T) {
	hp := serveDaemon(t)
	c := wire.NewClient(hp)
	defer c.Close()
	self := unitInstall().Self
	other := route.Entry{ID: unitSpec.Make([]ids.Digit{3, 0, 0}), Addr: 2}
	if err := c.Call(other, unitInstall(), &wire.ClusterAck{}); !errors.Is(err, wire.ErrGone) {
		t.Fatalf("install addressed to another node: err %v, want ErrGone", err)
	}
	if err := c.Call(self, unitInstall(), &wire.ClusterAck{}); err != nil {
		t.Fatalf("install addressed to its own self: %v", err)
	}
	guid := unitSpec.Make([]ids.Digit{1, 2, 3})
	for _, to := range []route.Entry{other, {ID: self.ID, Addr: other.Addr}} {
		if err := c.Call(to, &wire.ClusterServe{GUIDs: []ids.ID{guid}}, &wire.ClusterAck{}); !errors.Is(err, wire.ErrGone) {
			t.Errorf("serve addressed to %v@%d: err %v, want ErrGone", to.ID, to.Addr, err)
		}
	}
	f := &wire.ClusterFound{}
	if err := c.Call(self, &wire.ClusterLocate{GUID: guid, Key: guid}, f); err != nil {
		t.Fatalf("locate addressed to the installed self after gone replies: %v", err)
	}
	if f.Found {
		t.Error("a serve answered gone still registered its GUID")
	}
}
