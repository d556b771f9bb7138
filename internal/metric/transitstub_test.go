package metric

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestTransitStubMatchesDijkstra pins the closed form to the full-graph
// shortest paths it replaces: Distance must equal the float32-rounded
// Dijkstra row on the same buildTransitStubGraph graph, bit for bit. All
// pairs are compared up to 4112 points; above that, and above the default
// topology under -race, every 37th source row.
func TestTransitStubMatchesDijkstra(t *testing.T) {
	for _, c := range []struct {
		name string
		p    TransitStubParams
	}{
		{"default", DefaultTransitStub()},
		{"1024", ScaledTransitStub(1024)},
		{"4096", ScaledTransitStub(4096)},
		{"3*DenseLimit", ScaledTransitStub(3 * DenseLimit)},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				t.Parallel()
				g, _ := buildTransitStubGraph(c.p, rand.New(rand.NewSource(seed)))
				s := NewTransitStub(c.p, rand.New(rand.NewSource(seed)))
				if s.Size() != g.n {
					t.Fatalf("size %d, graph has %d points", s.Size(), g.n)
				}
				step := 1
				if g.n > 4112 || (raceEnabled && g.n > DefaultTransitStub().NodeCount()) {
					step = 37
				}
				dist := make([]float64, g.n)
				for src := 0; src < g.n; src += step {
					g.dijkstra(src, dist)
					for j, d := range dist {
						want := math.Float64bits(float64(float32(d)))
						if got := s.Distance(src, j); math.Float64bits(got) != want {
							t.Fatalf("d(%d,%d) = %v, Dijkstra gives %v", src, j, got, float32(d))
						}
						if got := s.Distance(j, src); math.Float64bits(got) != want {
							t.Fatalf("d(%d,%d) = %v, Dijkstra gives %v", j, src, got, float32(d))
						}
					}
				}
			})
		}
	}
}

// TestTransitStubTriangle samples the metric axioms at both ends of the size
// range; the distances are exact integers, so no slack is needed.
func TestTransitStubTriangle(t *testing.T) {
	for _, points := range []int{0, 1024, 3 * DenseLimit} {
		s := NewTransitStub(ScaledTransitStub(points), rand.New(rand.NewSource(5)))
		if err := CheckTriangle(s, 20000, 0); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

// TestTransitStubConcurrentReaders has many goroutines read Distance at once
// and checks every value against a serial pass. Run under -race in CI: the
// space must be read-only after construction.
func TestTransitStubConcurrentReaders(t *testing.T) {
	s := NewTransitStub(ScaledTransitStub(1024), rand.New(rand.NewSource(8)))
	n := s.Size()
	want := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i*n+j] = s.Distance(i, j)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for q := 0; q < 5000; q++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if got := s.Distance(i, j); got != want[i*n+j] {
					t.Errorf("concurrent d(%d,%d) = %g, want %g", i, j, got, want[i*n+j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestTransitStubRejectsBrokenPremise checks that graphs outside the closed
// form's premise panic at construction: a stub with a second link out of its
// block, a stub with none, and a stub split in two.
func TestTransitStubRejectsBrokenPremise(t *testing.T) {
	p := DefaultTransitStub()
	transit := p.TransitDomains * p.TransitPerDom
	// Two routers and one two-host stub at points 2 and 3.
	tiny := func(edges ...[3]float64) *graph {
		g := newGraph(4)
		g.addEdge(0, 1, 20)
		for _, e := range edges {
			g.addEdge(int(e[0]), int(e[1]), e[2])
		}
		return g
	}
	for name, build := range map[string]func(){
		"stub-to-stub link": func() {
			g, region := buildTransitStubGraph(p, rand.New(rand.NewSource(1)))
			g.addEdge(transit, transit+p.StubSize, 1)
			newTransitStub(g, region, transit, p.StubSize)
		},
		"second access link": func() {
			newTransitStub(tiny([3]float64{0, 2, 10}, [3]float64{1, 3, 10}, [3]float64{2, 3, 1}), []int{-1, -1, 0, 0}, 2, 2)
		},
		"no access link": func() {
			newTransitStub(tiny([3]float64{2, 3, 1}), []int{-1, -1, 0, 0}, 2, 2)
		},
		"disconnected stub": func() {
			newTransitStub(tiny([3]float64{0, 2, 10}), []int{-1, -1, 0, 0}, 2, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			build()
		}()
	}
	// The same tiny graph with one access link and a connected stub is fine.
	s := newTransitStub(tiny([3]float64{0, 2, 10}, [3]float64{2, 3, 1}), []int{-1, -1, 0, 0}, 2, 2)
	if got := s.Distance(1, 3); got != 31 {
		t.Errorf("tiny d(1,3) = %g, want 31", got)
	}
}
