package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// TestConcurrentJoinsUnderQueryLoad is the §4.4/Theorem 6 regression test
// for the pin-lifetime and wavefront-crossing bugs: waves of simultaneous
// insertions run while a query loop hammers Locate, then Property 1 is
// audited. The query load is what makes the historical failure modes likely
// — it perturbs the join interleavings enough that, before the fixes
// (whole-insertion pin lifetime, step-2 surrogate pin, pre-descend inflight
// forwarding, Figure 10 bounce in the walk driver, atomic register), two
// concurrent inserters could permanently miss each other or seed a join
// from a mid-insertion surrogate's near-empty table.
func TestConcurrentJoinsUnderQueryLoad(t *testing.T) {
	attempts := 20
	if testing.Short() {
		attempts = 4
	}
	spec := ids.Spec{Base: 16, Digits: 8}
	for attempt := 0; attempt < attempts; attempt++ {
		base, waves, batch := 12, 3, 6
		seed := int64(10 + attempt)
		cfg := DefaultConfig()
		cfg.Spec = spec
		rng := rand.New(rand.NewSource(seed))
		total := base + waves*batch
		space := metric.NewRing(4 * total)
		net := netsim.New(space)
		m, err := NewMesh(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(space.Size())
		addrs := make([]netsim.Addr, total)
		for i := range addrs {
			addrs[i] = netsim.Addr(perm[i])
		}
		nodes, _, err := m.GrowSequential(addrs[:base], rng)
		if err != nil {
			t.Fatal(err)
		}
		guids := make([]ids.ID, 6)
		for i := range guids {
			guids[i] = spec.Hash(fmt.Sprintf("cj-%d", i))
			if err := nodes[i%len(nodes)].Publish(guids[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		next := base
		for wave := 0; wave < waves; wave++ {
			var wg sync.WaitGroup
			errs := make([]error, batch)
			for i := 0; i < batch; i++ {
				gw := nodes[rng.Intn(len(nodes))]
				id := spec.Random(rng)
				for m.NodeByID(id) != nil {
					id = spec.Random(rng)
				}
				addr := addrs[next]
				next++
				wg.Add(1)
				go func(i int, gw *Node, id ids.ID, addr netsim.Addr) {
					defer wg.Done()
					_, _, errs[i] = m.Join(gw, id, addr)
				}(i, gw, id, addr)
			}
			stop := make(chan struct{})
			var qwg sync.WaitGroup
			qwg.Add(1)
			go func() {
				defer qwg.Done()
				qrng := rand.New(rand.NewSource(seed * 77))
				for {
					select {
					case <-stop:
						return
					default:
					}
					c := nodes[qrng.Intn(len(nodes))]
					c.Locate(guids[qrng.Intn(len(guids))], nil)
				}
			}()
			wg.Wait()
			close(stop)
			qwg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("attempt %d wave %d: join failed: %v", attempt, wave, err)
				}
			}
			nodes = m.Nodes()
			if v1 := m.AuditProperty1(); len(v1) > 0 {
				t.Fatalf("attempt %d wave %d: %d P1 violations (first: %s)", attempt, wave, len(v1), v1[0])
			}
		}
	}
}
