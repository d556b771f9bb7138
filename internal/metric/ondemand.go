package metric

import (
	"container/list"
	"fmt"
	"math"
	"sync"
)

// DenseLimit is the largest point count for which NewRandomGraph eagerly
// materialises the full n×n distance matrix. Below it the matrix costs at
// most ~16 MB and beats repeated shortest-path work; above it NewRandomGraph
// returns an on-demand *GraphSpace instead, whose memory is
// O(n + edges + cached rows) — a 65k point matrix would need 17 GB, the
// on-demand form a few hundred MB. Transit-stub metrics never use either:
// NewTransitStub is closed-form at every size.
const DenseLimit = 2048

// GraphSpace is a shortest-path metric computed on demand from an adjacency
// list. Distance(i, j) runs Dijkstra from i the first time any distance from
// i is requested and caches the whole source row in a bounded LRU, so access
// patterns with source locality (a node examining many peers, the network
// simulator charging messages from live overlay nodes) pay one shortest-path
// computation per hot source instead of O(n) eager ones.
//
// GraphSpace is safe for concurrent readers: row computation is deduplicated
// (a second reader of an in-flight row waits for the first), and evictions
// never invalidate rows already handed to a waiter.
type GraphSpace struct {
	g    *graph
	name string

	mu      sync.Mutex
	capRows int
	rows    map[int]*rowEntry
	lru     *list.List // of *rowEntry; front = most recently used

	hits, misses, evictions int64
}

// rowEntry is one cached (or in-flight) source row. ready is closed once row
// is filled; waiters that obtained the entry before an eviction still get
// the row through their pointer.
type rowEntry struct {
	src   int
	ready chan struct{}
	row   []float32
	el    *list.Element
}

// rowCacheBudget bounds the default row cache at ~256 MB of float32 rows.
const rowCacheBudget = 256 << 20

func newGraphSpace(g *graph, name string) *GraphSpace {
	return &GraphSpace{
		g:       g,
		name:    name,
		capRows: defaultRowCap(g.n),
		rows:    make(map[int]*rowEntry),
		lru:     list.New(),
	}
}

// defaultRowCap sizes the LRU to the rowCacheBudget, clamped to [64, n].
func defaultRowCap(n int) int {
	c := rowCacheBudget / (4 * n)
	if c > n {
		c = n
	}
	if c < 64 {
		c = 64
	}
	return c
}

func (s *GraphSpace) Size() int    { return s.g.n }
func (s *GraphSpace) Name() string { return s.name }

// CacheStats reports row-cache activity since construction.
func (s *GraphSpace) CacheStats() (hits, misses, evictions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, s.evictions
}

// Distance returns the shortest-path distance between points i and j,
// computing and caching the source row of i as needed. Values are rounded
// through float32 exactly like Dense, so a GraphSpace and the Dense
// materialisation of the same graph agree bit-for-bit.
func (s *GraphSpace) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return float64(s.row(i)[j])
}

func (s *GraphSpace) row(src int) []float32 {
	s.mu.Lock()
	if e, ok := s.rows[src]; ok {
		s.lru.MoveToFront(e.el)
		s.hits++
		s.mu.Unlock()
		<-e.ready
		if e.row == nil {
			// The computing goroutine panicked (disconnected graph): fail
			// loudly here too rather than serving a bogus row.
			panic(fmt.Sprintf("metric: %s row %d computation failed", s.name, src))
		}
		return e.row
	}
	e := &rowEntry{src: src, ready: make(chan struct{})}
	e.el = s.lru.PushFront(e)
	s.rows[src] = e
	s.misses++
	s.evictOverCapLocked()
	s.mu.Unlock()

	// If the computation unwinds (the disconnection panic below), drop the
	// entry from the cache and still close ready — otherwise the poisoned,
	// never-ready entry would hang every later reader of this source once a
	// caller (e.g. the experiment runner) recovers the panic.
	defer func() {
		if e.row == nil {
			s.mu.Lock()
			if s.rows[src] == e {
				s.lru.Remove(e.el)
				delete(s.rows, src)
			}
			s.mu.Unlock()
			close(e.ready)
		}
	}()

	dist := make([]float64, s.g.n)
	s.g.dijkstra(src, dist)
	row := make([]float32, s.g.n)
	for j, d := range dist {
		if math.IsInf(d, 1) {
			panic(fmt.Sprintf("metric: %s is disconnected (no path %d->%d)", s.name, src, j))
		}
		row[j] = float32(d)
	}
	e.row = row
	close(e.ready)
	return row
}

// evictOverCapLocked drops least-recently-used rows until the cache fits.
// Evicting an in-flight entry is safe: its waiters hold the entry pointer
// and receive the row when the computation finishes; the row is simply not
// retained for future callers.
func (s *GraphSpace) evictOverCapLocked() {
	for len(s.rows) > s.capRows {
		back := s.lru.Back()
		be := back.Value.(*rowEntry)
		s.lru.Remove(back)
		delete(s.rows, be.src)
		s.evictions++
	}
}
