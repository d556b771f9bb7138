package tapestry

import (
	"runtime"
	"testing"
	"time"
)

// TestCloseIdempotent pins that Close can be called more than once — callers
// commonly pair a deferred Close with an explicit one on the error path —
// and that a default (direct-transport) network closes without error.
func TestCloseIdempotent(t *testing.T) {
	nw, _ := newNet(t, 8)
	if err := nw.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseTCPTeardown pins that closing a TCP-backed network tears down its
// listener and connection-pool goroutines: the goroutine count settles back
// to (at most) its pre-network level. The count is polled with a retry loop —
// connection readers exit asynchronously after the sockets close.
func TestCloseTCPTeardown(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := Defaults()
	cfg.Transport = TransportTCP
	nw, err := New(RingSpace(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(16)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-node traffic forces connections (and their reader goroutines)
	// into existence before the teardown being tested.
	if _, err := nodes[0].Publish("close-teardown"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if res, _ := nodes[len(nodes)-1].Locate("close-teardown"); !res.Found {
		t.Fatal("object not found over TCP transport")
	}
	if during := runtime.NumGoroutine(); during <= before {
		t.Fatalf("TCP transport spawned no goroutines (%d before, %d during): test is vacuous", before, during)
	}

	if err := nw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("second Close after TCP teardown: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finalizer-held stacks; cheap in a test
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCloseStaticTCPReleasesReplacedMesh pins that a static bulk Grow on a
// TCP-backed network closes the empty mesh it replaces: after Close, no
// listener of either mesh keeps a goroutine alive.
func TestCloseStaticTCPReleasesReplacedMesh(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := Defaults()
	cfg.Transport = TransportTCP
	cfg.StaticBuild = true
	nw, err := New(RingSpace(64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := nw.Grow(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].Publish("static-teardown"); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := nw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d before, %d after", before, after)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
