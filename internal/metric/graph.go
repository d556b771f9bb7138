package metric

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// graph is a weighted undirected adjacency list used to derive shortest-path
// metrics.
type graph struct {
	n   int
	adj [][]edge
}

type edge struct {
	to int
	w  float64
}

func newGraph(n int) *graph { return &graph{n: n, adj: make([][]edge, n)} }

func (g *graph) addEdge(a, b int, w float64) {
	g.adj[a] = append(g.adj[a], edge{b, w})
	g.adj[b] = append(g.adj[b], edge{a, w})
}

// apsp runs Dijkstra from every source and materialises the metric.
func (g *graph) apsp(name string) *Dense {
	d := newDense(g.n, name)
	g.allPairs(name, d.d)
	return d
}

// allPairs runs Dijkstra from every source and stores the distances,
// rounded to float32, row-major into d (len g.n²). It panics if the graph is
// disconnected, since a partial metric would silently corrupt experiments.
func (g *graph) allPairs(name string, d []float32) {
	dist := make([]float64, g.n)
	for src := 0; src < g.n; src++ {
		g.dijkstra(src, dist)
		for j := 0; j < g.n; j++ {
			if math.IsInf(dist[j], 1) {
				panic(fmt.Sprintf("metric: %s is disconnected (no path %d->%d)", name, src, j))
			}
			d[src*g.n+j] = float32(dist[j])
		}
	}
}

// subgraph returns the subgraph induced on points [lo, hi), renumbered from 0.
func (g *graph) subgraph(lo, hi int) *graph {
	sub := newGraph(hi - lo)
	for a := lo; a < hi; a++ {
		for _, e := range g.adj[a] {
			if e.to >= lo && e.to < hi {
				sub.adj[a-lo] = append(sub.adj[a-lo], edge{e.to - lo, e.w})
			}
		}
	}
	return sub
}

func (g *graph) dijkstra(src int, dist []float64) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := &distHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if nd := it.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				heap.Push(pq, distItem{e.to, nd})
			}
		}
	}
}

type distItem struct {
	node int
	d    float64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// NewRandomGraph builds the shortest-path metric of a connected random
// graph: a Hamiltonian cycle (guaranteeing connectivity) plus extraDegree·n/2
// random chords, with edge weights uniform in [1, maxW). Such metrics are
// generally NOT growth-restricted and exercise the Section 7 scheme.
//
// Up to DenseLimit points the result is a materialised *Dense matrix; above
// it, an on-demand *GraphSpace (identical distances, O(n)-scale memory).
func NewRandomGraph(n, extraDegree int, maxW float64, rng *rand.Rand) Space {
	g := buildRandomGraph(n, extraDegree, maxW, rng)
	name := fmt.Sprintf("randgraph(n=%d,deg=%d)", n, extraDegree)
	if n <= DenseLimit {
		return g.apsp(name)
	}
	return newGraphSpace(g, name)
}

// buildRandomGraph constructs the adjacency list behind NewRandomGraph; the
// representation choice (matrix vs on-demand) never changes the topology or
// the RNG stream.
func buildRandomGraph(n, extraDegree int, maxW float64, rng *rand.Rand) *graph {
	if n < 3 {
		panic("metric: random graph needs n >= 3")
	}
	g := newGraph(n)
	for i := 0; i < n; i++ {
		g.addEdge(i, (i+1)%n, 1+rng.Float64()*(maxW-1))
	}
	for e := 0; e < extraDegree*n/2; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.addEdge(a, b, 1+rng.Float64()*(maxW-1))
		}
	}
	return g
}

// TransitStubParams shapes a transit-stub topology in the style of Zegura,
// Calvert and Bhattacharjee [34], the Internet model the paper cites for
// realistic deployment (Section 6.2).
type TransitStubParams struct {
	TransitDomains  int     // number of transit (backbone) domains
	TransitPerDom   int     // routers per transit domain
	StubsPerTransit int     // stub domains hanging off each transit router
	StubSize        int     // hosts per stub domain
	TransitWeight   float64 // latency of transit-transit links
	StubUpWeight    float64 // latency of stub-to-transit access links
	IntraStubWeight float64 // latency of links inside a stub
}

// DefaultTransitStub yields a topology with the order-of-magnitude latency
// separation between intra-stub and wide-area paths that Section 6.3 relies
// on.
func DefaultTransitStub() TransitStubParams {
	return TransitStubParams{
		TransitDomains:  4,
		TransitPerDom:   4,
		StubsPerTransit: 3,
		StubSize:        8,
		TransitWeight:   20,
		StubUpWeight:    10,
		IntraStubWeight: 1,
	}
}

// NodeCount returns the total number of points the parameters generate.
func (p TransitStubParams) NodeCount() int {
	transit := p.TransitDomains * p.TransitPerDom
	return transit + transit*p.StubsPerTransit*p.StubSize
}

// ScaledTransitStub derives transit-stub parameters whose point count is at
// least `points`. Stubs first grow to a locality-meaningful ceiling of 32
// hosts; beyond that the transit backbone grows instead (8 stubs of 32 hosts
// per router), so a 50k-point request yields ~200 routers over ~1500 stubs
// rather than a handful of giant stubs. For points at or below the default
// topology's size it returns DefaultTransitStub unchanged.
func ScaledTransitStub(points int) TransitStubParams {
	p := DefaultTransitStub()
	if points <= p.NodeCount() {
		return p
	}
	transit := p.TransitDomains * p.TransitPerDom
	stubs := transit * p.StubsPerTransit
	if size := (points - transit + stubs - 1) / stubs; size <= 32 {
		p.StubSize = size
		return p
	}
	p.StubsPerTransit = 8
	p.StubSize = 32
	perRouter := 1 + p.StubsPerTransit*p.StubSize
	transit = (points + perRouter - 1) / perRouter
	p.TransitDomains = (transit + p.TransitPerDom - 1) / p.TransitPerDom
	if p.TransitDomains < 2 {
		p.TransitDomains = 2
	}
	return p
}

// buildTransitStubGraph lays out the transit-stub topology behind
// NewTransitStub: transit routers occupy points [0, T), followed by the
// stubs as contiguous StubSize blocks in router order. It returns the graph
// and the region labels (-1 for transit routers, the stub index for stub
// hosts). Changing the RNG draws or their order here changes every
// transit-stub experiment's topology.
func buildTransitStubGraph(p TransitStubParams, rng *rand.Rand) (*graph, []int) {
	if p.TransitDomains < 1 || p.TransitPerDom < 1 || p.StubsPerTransit < 0 || p.StubSize < 1 {
		panic("metric: invalid transit-stub parameters")
	}
	n := p.NodeCount()
	g := newGraph(n)
	region := make([]int, n)
	transitCount := p.TransitDomains * p.TransitPerDom

	// Transit backbone: a ring over domains plus a clique inside each domain.
	for dom := 0; dom < p.TransitDomains; dom++ {
		base := dom * p.TransitPerDom
		for i := 0; i < p.TransitPerDom; i++ {
			region[base+i] = -1
			for j := i + 1; j < p.TransitPerDom; j++ {
				g.addEdge(base+i, base+j, p.TransitWeight/2)
			}
		}
		nextBase := ((dom + 1) % p.TransitDomains) * p.TransitPerDom
		g.addEdge(base, nextBase, p.TransitWeight)
		// A random cross-link makes the backbone less ring-like.
		if p.TransitDomains > 2 {
			other := rng.Intn(p.TransitDomains)
			if other != dom {
				g.addEdge(base+rng.Intn(p.TransitPerDom), other*p.TransitPerDom+rng.Intn(p.TransitPerDom), p.TransitWeight)
			}
		}
	}

	// Stubs: a short path + chords inside each stub, attached to its transit
	// router by an access link.
	next := transitCount
	stubIndex := 0
	for t := 0; t < transitCount; t++ {
		for s := 0; s < p.StubsPerTransit; s++ {
			base := next
			for h := 0; h < p.StubSize; h++ {
				region[base+h] = stubIndex
				if h > 0 {
					g.addEdge(base+h-1, base+h, p.IntraStubWeight)
				}
			}
			// Intra-stub chords keep stub diameter small.
			for c := 0; c < p.StubSize/2; c++ {
				a, b := base+rng.Intn(p.StubSize), base+rng.Intn(p.StubSize)
				if a != b {
					g.addEdge(a, b, p.IntraStubWeight)
				}
			}
			g.addEdge(t, base+rng.Intn(p.StubSize), p.StubUpWeight)
			next += p.StubSize
			stubIndex++
		}
	}

	return g, region
}

// NewUniformCloud places n points uniformly at random on the unit 2-torus.
func NewUniformCloud(n int, rng *rand.Rand) *Cloud {
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		y[i] = rng.Float64()
	}
	return NewCloud(x, y, "uniform")
}
