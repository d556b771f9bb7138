package core

import (
	"math/rand"
	"runtime"
	"testing"

	"tapestry/internal/metric"
	"tapestry/internal/netsim"
)

// BenchmarkBuildStatic measures the exact static builder on one worker over
// a 1024-node transit-stub mesh at the default configuration. Besides time
// and allocations it reports heap-MB/op: the live heap the built mesh holds,
// read after a forced GC, net of the substrate and participant list.
func BenchmarkBuildStatic(b *testing.B) {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	space := metric.NewTransitStub(metric.ScaledTransitStub(4*n), rng)
	perm := rng.Perm(space.Size())
	addrs := make([]netsim.Addr, n)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	cfg := DefaultConfig()
	cfg.Transport = TransportDirect
	parts := StaticParticipants(cfg.Spec, addrs, rng)

	var ms runtime.MemStats
	liveMB := func() float64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	var heapMB float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveMB()
		b.StartTimer()
		m, err := BuildStaticWith(netsim.New(space), cfg, parts, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		heapMB += liveMB() - before
		runtime.KeepAlive(m)
		b.StartTimer()
	}
	b.ReportMetric(heapMB/float64(b.N), "heap-MB/op")
}
