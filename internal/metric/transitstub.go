package metric

import (
	"fmt"
	"math/rand"
)

// TransitStub is the shortest-path metric of a transit-stub topology, held in
// closed form. Every stub hangs off one transit router through one access
// link, so a shortest path between points in different stubs climbs to its
// router, crosses the backbone and descends:
//
//	d(i, j) = backbone[home(i)][home(j)] + up[i] + up[j]
//
// where home(p) is p's router and up[p] its intra-stub distance to the
// gateway plus the access weight; a router is its own home, with up 0. Two
// points of one stub use the stub's own distance block instead.
//
// Memory is O(n + stubs·StubSize² + routers²): about 0.6 MB at 4k points,
// where an n×n matrix needs 67 MB. Distance is a few slice reads with no lock
// and no allocation, so a TransitStub is safe for any number of concurrent
// readers.
//
// With integer link weights (every parameter set in this repository) each
// term and each sum is an exact float64 integer, so Distance is bit-for-bit
// the float32-rounded Dijkstra distance over the full graph.
type TransitStub struct {
	name     string
	transit  int       // routers occupy points [0, transit)
	stubSize int       // stub s occupies the stubSize points from transit+s·stubSize
	backbone []float32 // transit×transit router distances
	intra    []float32 // one stubSize×stubSize block per stub
	up       []float32 // per point: distance to its home router (0 on routers)
	home     []int32   // per point: the router its stub's access link reaches
	region   []int     // -1 on routers, the stub index on stub hosts
}

// NewTransitStub builds the shortest-path metric of a transit-stub topology.
// Its region labels (see Regions) give transit routers -1 and every stub host
// its stub domain index, enabling the Section 6.3 locality experiments
// ("never leave the stub"). The topology is derived from the same graph at
// every size; only the backbone and each stub are solved by Dijkstra.
func NewTransitStub(p TransitStubParams, rng *rand.Rand) *TransitStub {
	g, region := buildTransitStubGraph(p, rng)
	return newTransitStub(g, region, p.TransitDomains*p.TransitPerDom, p.StubSize)
}

// newTransitStub derives the closed form from a transit-stub graph whose
// points [0, transit) are routers and whose stubs follow as contiguous blocks
// of k points. It panics unless every stub has exactly one access link, to a
// router, and the backbone and every stub are connected: the premises of the
// closed form.
func newTransitStub(g *graph, region []int, transit, k int) *TransitStub {
	name := fmt.Sprintf("transitstub(n=%d)", g.n)
	stubs := (g.n - transit) / k
	s := &TransitStub{
		name:     name,
		transit:  transit,
		stubSize: k,
		backbone: make([]float32, transit*transit),
		intra:    make([]float32, stubs*k*k),
		up:       make([]float32, g.n),
		home:     make([]int32, g.n),
		region:   region,
	}
	for r := 0; r < transit; r++ {
		s.home[r] = int32(r)
	}
	g.subgraph(0, transit).allPairs(name+" backbone", s.backbone)
	for st := 0; st < stubs; st++ {
		base := transit + st*k
		links, gateway, router, access := 0, 0, 0, 0.0
		for a := base; a < base+k; a++ {
			for _, e := range g.adj[a] {
				if e.to < base || e.to >= base+k {
					links++
					gateway, router, access = a-base, e.to, e.w
				}
			}
		}
		if links != 1 || router >= transit {
			panic(fmt.Sprintf("metric: %s stub %d needs exactly one access link, to a transit router", name, st))
		}
		block := s.intra[st*k*k : (st+1)*k*k]
		g.subgraph(base, base+k).allPairs(fmt.Sprintf("%s stub %d", name, st), block)
		for h := 0; h < k; h++ {
			s.home[base+h] = int32(router)
			s.up[base+h] = float32(float64(block[h*k+gateway]) + access)
		}
	}
	return s
}

func (s *TransitStub) Size() int    { return len(s.region) }
func (s *TransitStub) Name() string { return s.name }

// Regions returns the locality labels (see the package-level Regions). The
// slice is the space's own; callers must not modify it.
func (s *TransitStub) Regions() []int { return s.region }

// Distance returns the shortest-path distance between points i and j, rounded
// through float32 like Dense.
func (s *TransitStub) Distance(i, j int) float64 {
	if r := s.region[i]; r >= 0 && r == s.region[j] {
		k := s.stubSize
		base := s.transit + r*k
		return float64(s.intra[r*k*k+(i-base)*k+j-base])
	}
	wide := float64(s.backbone[int(s.home[i])*s.transit+int(s.home[j])])
	return float64(float32(wide + (float64(s.up[i]) + float64(s.up[j]))))
}
