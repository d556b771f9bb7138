package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"tapestry/internal/wire"
)

// returnsWithin runs f on its own goroutine and marks the test failed if f
// has not returned after d. A walk that spins never returns, so waiting on it
// directly would hang the suite instead of failing one test.
func returnsWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Errorf("%s did not return within %v", what, d)
	}
}

// TestPointerRerouteFromFailedNodeReturns pins the per-walk dead set of the
// pointer re-route: node A holds a non-root pointer, A and the next hop of
// that pointer's path both fail, and A.OptimizeObjectPtrs re-walks the path.
// noteDead is a no-op at a dead node, so a walk that relied on it alone
// would re-pick the dead next hop forever.
func TestPointerRerouteFromFailedNodeReturns(t *testing.T) {
	m, nodes := buildMesh(t, 32, testConfig(), 21)
	server := nodes[0]
	for i := 0; ; i++ {
		if i == 64 {
			t.Fatal("no publish path of three or more nodes")
		}
		guid := testSpec.Hash(fmt.Sprintf("spin-%d", i))
		if err := server.Publish(guid, nil); err != nil {
			t.Fatal(err)
		}
		var path []*Node
		key := testSpec.Salt(guid, 0)
		if _, err := server.routeToKey(key, nil, wire.RouteOpRoute, func(cur *Node, _, _ int) bool {
			path = append(path, cur)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		if len(path) < 3 {
			continue
		}
		a, next := path[1], path[2]
		m.Fail(next)
		m.Fail(a)
		returnsWithin(t, 5*time.Second, "OptimizeObjectPtrs on a failed node", func() {
			a.OptimizeObjectPtrs(nil)
		})
		return
	}
}

// TestStubWalkFromFailedNodeReturns is the same check for the §6.3
// stub-local walks: PublishLocal and LocateLocal from a failed node whose
// stub-local next hop has failed too must return.
func TestStubWalkFromFailedNodeReturns(t *testing.T) {
	m, byRegion := buildStubMesh(t, 51)
	regions := make([]int, 0, len(byRegion))
	for r := range byRegion {
		regions = append(regions, r)
	}
	sort.Ints(regions)
	for _, region := range regions {
		members := byRegion[region]
		if len(members) < 4 {
			continue
		}
		for i := 0; i < 64; i++ {
			guid := testSpec.Hash(fmt.Sprintf("stub-spin-%d", i))
			f := members[0]
			f.mu.Lock()
			dec := f.nextHop(testSpec.Salt(guid, 0), 0, &hopFilter{stub: inStub(region)})
			f.mu.Unlock()
			if dec.terminal {
				continue
			}
			m.Fail(m.NodeAt(dec.next.Addr))
			m.Fail(f)
			returnsWithin(t, 5*time.Second, "PublishLocal from a failed node", func() {
				_ = f.PublishLocal(guid, nil)
			})
			returnsWithin(t, 5*time.Second, "LocateLocal from a failed node", func() {
				f.LocateLocal(guid, nil)
			})
			return
		}
	}
	t.Fatal("no stub member with a stub-local next hop")
}
