package tapestry

import (
	"errors"
	"sync"
	"testing"
)

// growProtocol builds an n-node overlay of the given protocol. The first
// Grow call bulk-builds, which is the only way to populate protocols
// without dynamic insertion (Pastry).
func growProtocol(t testing.TB, p Protocol, n int) (*Network, []*Node) {
	t.Helper()
	nw, err := NewProtocol(RingSpace(n*4), p, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(n)
	if err != nil {
		t.Fatal(err)
	}
	return nw, nodes
}

// TestProtocolLifecycle drives every backing protocol through the shared
// facade surface: grow, publish, locate from every member, stats.
func TestProtocolLifecycle(t *testing.T) {
	for _, p := range []Protocol{Tapestry, Chord, Pastry, CAN, Directory} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			nw, nodes := growProtocol(t, p, 20)
			if nw.Protocol() != p {
				t.Fatalf("Protocol() = %v", nw.Protocol())
			}
			if nw.Size() != 20 || len(nw.Nodes()) != 20 {
				t.Fatalf("size %d", nw.Size())
			}
			if _, err := nodes[0].Publish("hello"); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				res, cost := n.Locate("hello")
				if !res.Found {
					t.Fatalf("locate failed from %s", n.ID())
				}
				if res.ServerAddr != nodes[0].Addr() {
					t.Fatalf("wrong server addr %d, want %d", res.ServerAddr, nodes[0].Addr())
				}
				if n != nodes[0] && cost.Messages == 0 {
					t.Errorf("no cost charged from %s", n.ID())
				}
			}
			if s := nw.Stats(); s.Nodes != 20 || s.TotalMessages == 0 {
				t.Errorf("stats: %+v", s)
			}
			if nw.Caps() == "" {
				t.Error("empty caps rendering")
			}
		})
	}
}

// TestProtocolUnsupportedSurfacesCleanly is the capability-refusal
// contract: operations a protocol declines return an error matching
// ErrUnsupported through the facade — no panic, no fake success.
func TestProtocolUnsupportedSurfacesCleanly(t *testing.T) {
	// CAN: no graceful leave (the one-zone-per-node model cannot merge).
	nwCAN, canNodes := growProtocol(t, CAN, 12)
	if _, err := canNodes[3].Leave(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("CAN Leave returned %v, want ErrUnsupported", err)
	}
	if nwCAN.Size() != 12 {
		t.Fatalf("declined Leave changed membership: %d", nwCAN.Size())
	}
	// Declined Fail is a documented no-op: the node must stay alive.
	nwCAN.Fail(canNodes[3])
	if nwCAN.Size() != 12 {
		t.Fatalf("declined Fail changed membership: %d", nwCAN.Size())
	}

	// Pastry: static snapshot — no dynamic insertion.
	nwPastry, pastryNodes := growProtocol(t, Pastry, 12)
	if _, err := nwPastry.Grow(1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Pastry incremental Grow returned %v, want ErrUnsupported", err)
	}
	if _, _, err := nwPastry.AddNode(1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Pastry AddNode returned %v, want ErrUnsupported", err)
	}
	if _, err := pastryNodes[0].Leave(); !errors.Is(err, ErrUnsupported) {
		t.Fatal("Pastry Leave accepted")
	}

	// Tapestry-only extended surface declines elsewhere.
	_, chordNodes := growProtocol(t, Chord, 12)
	if _, _, err := chordNodes[0].Multicast(0, nil); !errors.Is(err, ErrUnsupported) {
		t.Fatal("Chord Multicast accepted")
	}
	if _, err := chordNodes[0].PublishLocal("x"); !errors.Is(err, ErrUnsupported) {
		t.Fatal("Chord PublishLocal accepted")
	}
}

// TestProtocolChurn exercises the churn-capable baselines through the
// facade: graceful leave keeps objects available, maintenance repairs
// around failures.
func TestProtocolChurn(t *testing.T) {
	for _, p := range []Protocol{Tapestry, Chord, Directory} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			nw, nodes := growProtocol(t, p, 24)
			if _, err := nodes[0].Publish("durable"); err != nil {
				t.Fatal(err)
			}
			if _, err := nodes[5].Leave(); err != nil {
				t.Fatal(err)
			}
			if nw.Size() != 23 {
				t.Fatalf("size after leave: %d", nw.Size())
			}
			nw.Fail(nodes[7])
			nw.SweepFailures()
			nw.RunMaintenance()
			if nw.Size() != 22 {
				t.Fatalf("size after fail: %d", nw.Size())
			}
			if p == Chord {
				// Chord has no soft-state republish: a reference stored at a
				// crashed owner is gone until the publisher re-announces —
				// which deployed publishers do periodically, so do it here.
				if _, err := nodes[0].Publish("durable"); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range nw.Nodes() {
				if res, _ := n.Locate("durable"); !res.Found {
					t.Fatalf("object lost after churn (client %s)", n.ID())
				}
			}
			// A fresh member keeps working after churn.
			grown, err := nw.Grow(1)
			if err != nil || len(grown) != 1 {
				t.Fatalf("post-churn grow: %v", err)
			}
			if res, _ := grown[0].Locate("durable"); !res.Found {
				t.Fatal("object invisible to the newcomer")
			}
		})
	}
}

// TestProtocolUnpublish: protocols with withdrawal really withdraw;
// protocols without it leave the object in place (documented no-op for the
// error-less Unpublish signature).
func TestProtocolUnpublish(t *testing.T) {
	for _, p := range []Protocol{Tapestry, Directory} {
		_, nodes := growProtocol(t, p, 16)
		nodes[3].Publish("temp")
		nodes[3].Unpublish("temp")
		if res, _ := nodes[8].Locate("temp"); res.Found {
			t.Errorf("%v: found after unpublish", p)
		}
	}
	_, nodes := growProtocol(t, Chord, 16)
	nodes[3].Publish("temp")
	nodes[3].Unpublish("temp") // declined: soft state persists
	if res, _ := nodes[8].Locate("temp"); !res.Found {
		t.Error("chord: declined Unpublish still removed the object")
	}
}

// TestProtocolConcurrentMembership pins the adapters' membership locking:
// concurrent AddNode/Leave/Nodes/Stats through the facade must be race-free
// (run under -race) for every churn-capable protocol.
func TestProtocolConcurrentMembership(t *testing.T) {
	for _, p := range []Protocol{Tapestry, Chord, CAN, Directory} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			nw, nodes := growProtocol(t, p, 16)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 8; i++ {
						addr, err := nw.freeAddr()
						if err != nil {
							t.Error(err)
							return
						}
						if _, _, err := nw.AddNode(addr); err != nil {
							t.Error(err)
							return
						}
						_ = nw.Nodes()
						_ = nw.Stats()
						_ = nw.Size()
					}
					// Leave is caps-gated; a refusal is fine, a race is not.
					if _, err := nodes[4+w].Leave(); err != nil && !errors.Is(err, ErrUnsupported) {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestLocateLocalFromCache pins the satellite fix: a cache-served query
// through LocateLocal must report FromCache just like Locate does.
func TestLocateLocalFromCache(t *testing.T) {
	cfg := Defaults()
	cfg.LocateCacheCap = 64
	nw, err := New(RingSpace(96), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Publish("hot"); err != nil {
		t.Fatal(err)
	}
	// Warm caches along the path, then query until a cache hit is visible
	// through BOTH entry points.
	sawLocate, sawLocal := false, false
	for i := 0; i < 64 && !(sawLocate && sawLocal); i++ {
		c := nodes[1+(i%(len(nodes)-1))]
		if res, _ := c.Locate("hot"); res.FromCache {
			sawLocate = true
		}
		if res, _, _ := c.LocateLocal("hot"); res.FromCache {
			sawLocal = true
		}
	}
	if !sawLocate {
		t.Fatal("no cache hit through Locate (cache layer broken?)")
	}
	if !sawLocal {
		t.Fatal("LocateLocal never reported FromCache — the field is being dropped")
	}
}

// TestProtocolStatsReadProtocol pins where Stats reads its numbers for every
// backing protocol: Nodes is the protocol's live membership, MeanTableLinks
// the mean of its per-member TableSize, TotalMessages the simulator's count;
// on Tapestry the availability knobs are the mesh's effective (defaulted)
// values.
func TestProtocolStatsReadProtocol(t *testing.T) {
	for _, p := range []Protocol{Tapestry, Chord, Pastry, CAN, Directory} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := Defaults()
			cfg.RootSetSize, cfg.Replicas = 0, 0 // the mesh defaults both to 1
			nw, err := NewProtocol(RingSpace(96), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes, err := nw.Grow(20)
			if err != nil {
				t.Fatal(err)
			}
			nodes[0].Publish("stats")
			nw.Fail(nodes[1]) // a no-op where the protocol declines failure

			s := nw.Stats()
			hs := nw.proto.Handles()
			links := 0
			for _, h := range hs {
				links += nw.proto.TableSize(h)
			}
			if s.Nodes != len(hs) {
				t.Errorf("Nodes = %d, protocol has %d members", s.Nodes, len(hs))
			}
			if want := float64(links) / float64(len(hs)); s.MeanTableLinks != want {
				t.Errorf("MeanTableLinks = %v, mean TableSize is %v", s.MeanTableLinks, want)
			}
			if s.TotalMessages != nw.TotalMessages() || s.TotalMessages == 0 {
				t.Errorf("TotalMessages = %d, network counted %d", s.TotalMessages, nw.TotalMessages())
			}
			if p == Tapestry {
				if s.TotalPointers == 0 || s.Roots != 1 || s.Replicas != 1 {
					t.Errorf("tapestry-only fields: %+v", s)
				}
			} else if s.TotalPointers != 0 || s.Roots != 0 || s.Replicas != 0 {
				t.Errorf("%v reports tapestry-only fields: %+v", p, s)
			}
		})
	}
}
