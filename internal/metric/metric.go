// Package metric provides the metric spaces the overlay algorithms run on.
//
// The paper's guarantees are stated for growth-restricted metrics: spaces
// where |B_A(2r)| <= c·|B_A(r)| for a constant expansion c (Equation 1).
// This package supplies lattice spaces (ring, torus) with provably small
// expansion, random point clouds, general random-graph shortest-path
// metrics that need NOT be growth-restricted (for the Section 7 scheme),
// and the transit-stub Internet model of Zegura et al. cited in Section 6.
//
// A Space is a finite metric over points indexed 0..Size()-1; overlay nodes
// are assigned points as their "network locations" and every simulated
// message is charged the metric distance between its endpoints.
package metric

import (
	"fmt"
	"math"
	"sort"
)

// Space is a finite metric space. Implementations must be symmetric, zero on
// the diagonal, and satisfy the triangle inequality; CheckTriangle verifies
// this by sampling.
type Space interface {
	// Size returns the number of points.
	Size() int
	// Distance returns the metric distance between points i and j.
	Distance(i, j int) float64
	// Name identifies the space in reports.
	Name() string
}

// Ring is the 1-dimensional cycle metric on n evenly spaced points: the
// distance between i and j is the shorter arc. Its expansion constant is 2,
// comfortably within the b > c^2 regime for base-16 identifiers.
type Ring struct{ N int }

// NewRing returns a ring of n points. It panics for n < 1.
func NewRing(n int) Ring {
	if n < 1 {
		panic("metric: ring needs at least one point")
	}
	return Ring{N: n}
}

func (r Ring) Size() int    { return r.N }
func (r Ring) Name() string { return fmt.Sprintf("ring(n=%d)", r.N) }

func (r Ring) Distance(i, j int) float64 {
	d := i - j
	if d < 0 {
		d = -d
	}
	if alt := r.N - d; alt < d {
		d = alt
	}
	return float64(d)
}

// Torus2D is the L1 metric on an s×s lattice with wraparound. Point k sits
// at (k % s, k / s). Expansion constant is bounded by 4 away from the
// wraparound scale.
type Torus2D struct{ Side int }

// NewTorus2D returns a torus with side s (s*s points). It panics for s < 1.
func NewTorus2D(s int) Torus2D {
	if s < 1 {
		panic("metric: torus needs positive side")
	}
	return Torus2D{Side: s}
}

func (t Torus2D) Size() int    { return t.Side * t.Side }
func (t Torus2D) Name() string { return fmt.Sprintf("torus(%dx%d)", t.Side, t.Side) }

func (t Torus2D) Distance(i, j int) float64 {
	xi, yi := i%t.Side, i/t.Side
	xj, yj := j%t.Side, j/t.Side
	return float64(wrapAbs(xi-xj, t.Side) + wrapAbs(yi-yj, t.Side))
}

func wrapAbs(d, n int) int {
	if d < 0 {
		d = -d
	}
	if alt := n - d; alt < d {
		d = alt
	}
	return d
}

// Cloud is a Euclidean point cloud on the unit 2-torus (wraparound square),
// so that boundary effects do not distort growth. Points are supplied by the
// caller (typically uniform random), making the space reproducible from a
// seed.
type Cloud struct {
	X, Y []float64
	name string
}

// NewCloud wraps explicit coordinates; x and y must have equal nonzero
// length and values in [0, 1).
func NewCloud(x, y []float64, name string) *Cloud {
	if len(x) == 0 || len(x) != len(y) {
		panic("metric: cloud needs matching nonempty coordinate slices")
	}
	return &Cloud{X: x, Y: y, name: name}
}

func (c *Cloud) Size() int    { return len(c.X) }
func (c *Cloud) Name() string { return fmt.Sprintf("cloud(%s,n=%d)", c.name, len(c.X)) }

func (c *Cloud) Distance(i, j int) float64 {
	dx := torusDelta(c.X[i] - c.X[j])
	dy := torusDelta(c.Y[i] - c.Y[j])
	return math.Sqrt(dx*dx + dy*dy)
}

func torusDelta(d float64) float64 {
	d = math.Abs(d)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

// Dense is an explicit distance matrix, the representation used for random
// graph metrics up to DenseLimit points; larger ones use the on-demand
// GraphSpace. Distances are stored as float32 to halve memory; the overlay's
// decisions are ordinal so the rounding is immaterial.
type Dense struct {
	n    int
	d    []float32
	name string
}

func newDense(n int, name string) *Dense {
	return &Dense{n: n, d: make([]float32, n*n), name: name}
}

func (g *Dense) Size() int    { return g.n }
func (g *Dense) Name() string { return g.name }

// Regions returns the per-point locality labels of a space (the stub-domain
// labelling of a transit-stub topology; -1 marks wide-area transit routers),
// or nil when the space has no region structure. It works on any space with
// a Regions method, including wrappers that forward one, so callers never
// depend on a concrete metric type.
func Regions(s Space) []int {
	if r, ok := s.(interface{ Regions() []int }); ok {
		return r.Regions()
	}
	return nil
}

// RegionLabels returns the sorted distinct region labels of a space,
// excluding the -1 transit marker — the enumeration a correlated-failure
// scenario picks its blackout domains from. Nil when the space has no region
// structure.
func RegionLabels(s Space) []int {
	labels := Regions(s)
	if labels == nil {
		return nil
	}
	seen := map[int]bool{}
	var out []int
	for _, l := range labels {
		if l >= 0 && !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

// RegionPoints returns, in ascending order, every point of the space labelled
// with region r. Nil when the space has no region structure or no point
// carries the label.
func RegionPoints(s Space, r int) []int {
	labels := Regions(s)
	if labels == nil {
		return nil
	}
	var out []int
	for p, l := range labels {
		if l == r {
			out = append(out, p)
		}
	}
	return out
}

func (g *Dense) Distance(i, j int) float64 { return float64(g.d[i*g.n+j]) }

func (g *Dense) set(i, j int, v float64) {
	g.d[i*g.n+j] = float32(v)
	g.d[j*g.n+i] = float32(v)
}

// Diameter returns the maximum pairwise distance; O(n^2) over Distance, so
// use on spaces of moderate size or lattice spaces where it is cheap anyway.
func Diameter(s Space) float64 {
	max := 0.0
	n := s.Size()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := s.Distance(i, j); d > max {
				max = d
			}
		}
	}
	return max
}

// CheckTriangle samples triples and returns an error describing the first
// triangle-inequality or symmetry violation found (within eps slack for
// float32-backed spaces).
func CheckTriangle(s Space, samples int, eps float64) error {
	n := s.Size()
	if n < 3 {
		return nil
	}
	// Deterministic stride-based sampling keeps this reproducible without an
	// RNG dependency.
	step := 2654435761 % uint64(n)
	if step == 0 {
		step = 1
	}
	pick := func(k uint64) int { return int((k * step) % uint64(n)) }
	for t := 0; t < samples; t++ {
		i, j, k := pick(uint64(3*t)), pick(uint64(3*t+1)), pick(uint64(3*t+2))
		if i == j || j == k || i == k {
			continue
		}
		dij, dji := s.Distance(i, j), s.Distance(j, i)
		if math.Abs(dij-dji) > eps {
			return fmt.Errorf("metric %s: asymmetric d(%d,%d)=%g d(%d,%d)=%g", s.Name(), i, j, dij, j, i, dji)
		}
		if s.Distance(i, i) != 0 {
			return fmt.Errorf("metric %s: d(%d,%d) != 0", s.Name(), i, i)
		}
		if dik, dkj := s.Distance(i, k), s.Distance(k, j); dij > dik+dkj+eps {
			return fmt.Errorf("metric %s: triangle violated d(%d,%d)=%g > %g+%g", s.Name(), i, j, dij, dik, dkj)
		}
	}
	return nil
}

// ExpansionStats summarises the measured expansion constant of a space: the
// distribution over sampled (point, radius) pairs of |B(2r)| / |B(r)|.
type ExpansionStats struct {
	Median, P90, Max float64
}

// EstimateExpansion measures Equation 1 empirically. For each of the
// samplePoints points (evenly strided), it sorts distances to all other
// points and evaluates the doubling ratio at logarithmically spaced radii,
// ignoring balls smaller than minBall (tiny balls are noise) and ratios
// where the doubled ball already covers everything (the paper's parenthetical
// "unless all points are within 2r of A").
func EstimateExpansion(s Space, samplePoints, minBall int) ExpansionStats {
	n := s.Size()
	if samplePoints > n {
		samplePoints = n
	}
	var ratios []float64
	if minBall < 1 || n-1 < minBall {
		return ExpansionStats{}
	}
	for si := 0; si < samplePoints; si++ {
		a := si * n / samplePoints
		dists := make([]float64, 0, n)
		for j := 0; j < n; j++ {
			if j != a {
				dists = append(dists, s.Distance(a, j))
			}
		}
		sort.Float64s(dists)
		for r := dists[minBall-1]; ; r *= 2 {
			small := countLE(dists, r)
			big := countLE(dists, 2*r)
			if big >= len(dists) {
				break
			}
			if small >= minBall {
				ratios = append(ratios, float64(big+1)/float64(small+1)) // +1 counts A itself
			}
		}
	}
	if len(ratios) == 0 {
		return ExpansionStats{}
	}
	sort.Float64s(ratios)
	return ExpansionStats{
		Median: ratios[len(ratios)/2],
		P90:    ratios[len(ratios)*9/10],
		Max:    ratios[len(ratios)-1],
	}
}

func countLE(sorted []float64, r float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(r, math.Inf(1)))
}
