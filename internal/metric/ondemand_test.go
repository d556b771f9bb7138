package metric

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lazyAndDense builds the same random graph twice from identical RNG streams
// and returns the on-demand and materialised representations, which must
// agree bit-for-bit (the lazy path stores rows as float32 exactly like
// Dense).
func lazyAndDense(t *testing.T, n int, seed int64) (*GraphSpace, *Dense) {
	t.Helper()
	g1 := buildRandomGraph(n, 3, 10, rand.New(rand.NewSource(seed)))
	g2 := buildRandomGraph(n, 3, 10, rand.New(rand.NewSource(seed)))
	return newGraphSpace(g1, "lazy"), g2.apsp("dense")
}

func TestGraphSpaceMatchesDenseOracle(t *testing.T) {
	lazy, dense := lazyAndDense(t, 120, 17)
	for i := 0; i < 120; i++ {
		for j := 0; j < 120; j++ {
			if got, want := lazy.Distance(i, j), dense.Distance(i, j); got != want {
				t.Fatalf("d(%d,%d): lazy %g != dense %g", i, j, got, want)
			}
		}
	}
}

// TestGraphSpaceEvictionCorrectness hammers a cache far smaller than the
// source set, so every access pattern goes through eviction and
// recomputation; recomputed rows must still match the Dense oracle.
func TestGraphSpaceEvictionCorrectness(t *testing.T) {
	lazy, dense := lazyAndDense(t, 90, 23)
	lazy.capRows = 3
	rng := rand.New(rand.NewSource(1))
	for q := 0; q < 4000; q++ {
		i, j := rng.Intn(90), rng.Intn(90)
		if got, want := lazy.Distance(i, j), dense.Distance(i, j); got != want {
			t.Fatalf("after evictions, d(%d,%d): lazy %g != dense %g", i, j, got, want)
		}
	}
	hits, misses, evictions := lazy.CacheStats()
	if evictions == 0 {
		t.Error("cap 3 over 90 sources must evict")
	}
	if hits == 0 || misses == 0 {
		t.Errorf("expected both hits and misses, got hits=%d misses=%d", hits, misses)
	}
}

// TestGraphSpaceConcurrentReaders races many readers over a small cache
// (constant eviction, duplicated in-flight computations) and checks every
// returned distance against the oracle. Run under -race in CI.
func TestGraphSpaceConcurrentReaders(t *testing.T) {
	lazy, dense := lazyAndDense(t, 80, 31)
	lazy.capRows = 4
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for q := 0; q < 500; q++ {
				i, j := rng.Intn(80), rng.Intn(80)
				if got, want := lazy.Distance(i, j), dense.Distance(i, j); got != want {
					select {
					case errs <- "concurrent read returned a wrong distance":
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestGraphConstructorsPickRepresentation pins the DenseLimit policy for
// random graphs, and that transit-stub spaces on either side of it are
// closed-form with their region labels intact.
func TestGraphConstructorsPickRepresentation(t *testing.T) {
	small := NewRandomGraph(64, 2, 8, rand.New(rand.NewSource(3)))
	if _, ok := small.(*Dense); !ok {
		t.Errorf("n=64 should materialise a Dense matrix, got %T", small)
	}
	big := NewRandomGraph(DenseLimit+1, 2, 8, rand.New(rand.NewSource(3)))
	if _, ok := big.(*GraphSpace); !ok {
		t.Errorf("n=%d should stay on-demand, got %T", DenseLimit+1, big)
	}
	// NewTransitStub returns the closed-form *TransitStub at every size: far
	// below the n² floats of a matrix, with buildTransitStubGraph's labels.
	for _, points := range []int{DenseLimit / 2, 3 * DenseLimit} {
		p := ScaledTransitStub(points)
		ts := NewTransitStub(p, rand.New(rand.NewSource(4)))
		if floats := len(ts.backbone) + len(ts.intra) + len(ts.up); floats > ts.Size()*ts.Size()/8 {
			t.Errorf("%s holds %d floats, too close to a %d² matrix", ts.Name(), floats, ts.Size())
		}
		_, want := buildTransitStubGraph(p, rand.New(rand.NewSource(4)))
		got := Regions(ts)
		if len(got) != len(want) {
			t.Fatalf("%s: %d region labels, want %d", ts.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: point %d labelled %d, want %d", ts.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestScaledTransitStub checks the parameter derivation: at least the
// requested points, stub sizes bounded, and the default below the default
// topology size.
func TestScaledTransitStub(t *testing.T) {
	for _, points := range []int{1, 400, 600, 2048, 10000, 50000} {
		p := ScaledTransitStub(points)
		if got := p.NodeCount(); got < points {
			t.Errorf("ScaledTransitStub(%d) yields only %d points", points, got)
		}
		if p.StubSize > 32 && points > DefaultTransitStub().NodeCount() {
			t.Errorf("ScaledTransitStub(%d) stub size %d exceeds locality ceiling", points, p.StubSize)
		}
	}
	if ScaledTransitStub(10) != DefaultTransitStub() {
		t.Error("small requests should return the default topology")
	}
}

// TestGraphSpaceDisconnectedPanics pins the lazy counterpart of apsp's
// disconnection check: the panic happens at first use, not construction —
// and a recovered panic must not poison the cache (later reads of the same
// source panic again instead of hanging on a never-ready entry).
func TestGraphSpaceDisconnectedPanics(t *testing.T) {
	g := newGraph(4)
	g.addEdge(0, 1, 1)
	g.addEdge(2, 3, 1)
	s := newGraphSpace(g, "split")
	mustPanic := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		_ = s.Distance(0, 3)
		return false
	}
	if !mustPanic() {
		t.Fatal("expected panic for disconnected graph")
	}
	done := make(chan bool, 1)
	go func() { done <- mustPanic() }()
	select {
	case again := <-done:
		if !again {
			t.Error("second read of the failed source must panic too")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second read hung on a poisoned cache entry")
	}
}
