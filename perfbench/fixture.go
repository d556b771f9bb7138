package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tapestry/internal/core"
	"tapestry/internal/ids"
	"tapestry/internal/metric"
	"tapestry/internal/netsim"
	"tapestry/internal/stats"
	"tapestry/internal/workload"
)

// streamRNG derives the labelled input stream of a seed, so every input
// (topology, IDs, placement, draws, churn) is a pure function of --seed and
// independent of the others.
func streamRNG(seed int64, label string, index int) *rand.Rand {
	return rand.New(rand.NewSource(stats.StreamSeed(seed, label, index)))
}

// hotBlock is how many draws share one popularity ranking in zipfDraws.
const hotBlock = 2000

// zipfDraws draws q (client, object) pairs from workload.ZipfQueries and
// reshuffles which objects are popular every hotBlock draws. Under Zipf(1.2)
// the ten hottest objects take about half of all draws, so with one fixed
// ranking a run's latency rests on where the seed happened to place those
// few objects; with a ranking per block it averages over many hot sets.
func zipfDraws(q, clients, objects int, s float64, rng *rand.Rand) workload.QueryMix {
	mix := workload.ZipfQueries(q, clients, objects, s, rng)
	for lo := 0; lo < q; lo += hotBlock {
		perm := rng.Perm(objects)
		for i := lo; i < q && i < lo+hotBlock; i++ {
			mix.Objects[i] = perm[mix.Objects[i]]
		}
	}
	return mix
}

// meshSpec describes one fixture: the overlay over a metric space, spare
// addresses for later joins, and the objects published before measuring.
type meshSpec struct {
	space      func(rng *rand.Rand) metric.Space
	nodes      int
	reserve    int
	objects    int
	cfg        core.Config
	sample     int  // candidates per slot for the sampled builder; 0 builds exactly
	replicated bool // place objects with PublishReplicated instead of Publish
}

// fixture is one built overlay plus the benchmark's ground truth about it.
type fixture struct {
	timed   *timedSpace // the metric decorator; nil on an untraced fixture
	net     *netsim.Network
	mesh    *core.Mesh
	nodes   []*core.Node // the static members, in participant order
	reserve []netsim.Addr
	guids   []ids.ID
	holder  []int // object -> index into nodes of its publishing node
	taken   map[ids.ID]bool

	publish samples // wall-clock ms per set-up publish
	pubCost netsim.Cost
	placed  int64 // replicas placed by set-up publishes
	setupS  float64
}

func (fx *fixture) close() {
	if fx != nil && fx.mesh != nil {
		fx.mesh.Close()
	}
}

// buildFixture builds spec's overlay from seed. A traced fixture hands
// netsim the timing decorator instead of the bare space.
func buildFixture(spec meshSpec, seed int64, traced bool) (*fixture, error) {
	start := time.Now()
	trng := streamRNG(seed, "topology", 0)
	space := spec.space(trng)
	if spec.nodes+spec.reserve > space.Size() {
		return nil, fmt.Errorf("%d nodes and %d reserve addresses do not fit %d points", spec.nodes, spec.reserve, space.Size())
	}
	fx := &fixture{}
	handed := space
	if traced {
		fx.timed = newTimedSpace(space)
		handed = fx.timed
	}
	fx.net = netsim.New(handed)

	perm := trng.Perm(space.Size())
	addrs := make([]netsim.Addr, spec.nodes)
	for i := range addrs {
		addrs[i] = netsim.Addr(perm[i])
	}
	fx.reserve = make([]netsim.Addr, spec.reserve)
	for i := range fx.reserve {
		fx.reserve[i] = netsim.Addr(perm[spec.nodes+i])
	}

	// The build runs on one worker: set-up time then does not depend on
	// how many of the host's cores the benchmark got during the build.
	cfg := spec.cfg
	cfg.Seed = stats.StreamSeed(seed, "mesh", 0)
	parts := core.StaticParticipants(cfg.Spec, addrs, streamRNG(seed, "ids", 0))
	var err error
	if spec.sample > 0 {
		fx.mesh, err = core.BuildStaticSampled(fx.net, cfg, parts, spec.sample, 1)
	} else {
		fx.mesh, err = core.BuildStaticWith(fx.net, cfg, parts, 1)
	}
	if err != nil {
		return nil, fmt.Errorf("build mesh: %w", err)
	}
	fx.nodes = make([]*core.Node, len(parts))
	for i, p := range parts {
		fx.nodes[i] = fx.mesh.NodeByID(p.ID)
	}

	place := workload.UniformPlacement(spec.objects, 1, spec.nodes, streamRNG(seed, "placement", 0))
	fx.guids = make([]ids.ID, spec.objects)
	fx.holder = make([]int, spec.objects)
	fx.taken = map[ids.ID]bool{}
	for i := range fx.guids {
		fx.guids[i] = fx.newGUID(fmt.Sprintf("perfbench/%d/%s", seed, place.Names[i]))
		fx.holder[i] = place.Servers[i][0]
		n := fx.nodes[fx.holder[i]]
		t0 := time.Now()
		if spec.replicated {
			var placed int
			placed, err = n.PublishReplicated(fx.guids[i], &fx.pubCost)
			fx.placed += int64(placed)
		} else {
			err = n.Publish(fx.guids[i], &fx.pubCost)
			fx.placed++
		}
		fx.publish.add(msSince(t0))
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("publish object %d: %w", i, err)
		}
	}
	fx.setupS = time.Since(start).Seconds()
	return fx, nil
}

// newGUID hashes name to an object GUID no earlier object of the fixture
// has. Short IDs (planet-virtual's 7 digits) make collisions likely among
// thousands of objects, and two objects sharing a GUID would make a correct
// answer look wrong.
func (fx *fixture) newGUID(name string) ids.ID {
	spec := fx.mesh.Spec()
	g := spec.Hash(name)
	for salt := 1; fx.taken[g]; salt++ {
		g = spec.Hash(fmt.Sprintf("%s/%d", name, salt))
	}
	fx.taken[g] = true
	return g
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// heapMB is the live heap after a forced collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// memProbe snapshots the Go runtime's allocation and collection counters.
type memProbe struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMemProbe() memProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memProbe{ms.Mallocs, ms.TotalAlloc, ms.NumGC}
}

// linksPerNode is the mean routing-table size over the live members.
func linksPerNode(m *core.Mesh) float64 {
	nodes := m.Nodes()
	if len(nodes) == 0 {
		return 0
	}
	total := 0
	for _, n := range nodes {
		total += n.NeighborCount()
	}
	return float64(total) / float64(len(nodes))
}

// deadNeighborCensus counts the distinct neighbors a mesh-wide sweep will
// probe and how many of them are dead — the ground truth behind the
// sweep's dead-probe ratio. It reads tables serially, between operations.
func deadNeighborCensus(m *core.Mesh) (probes, dead int) {
	seen := map[ids.ID]bool{}
	for _, n := range m.Nodes() {
		for _, e := range n.Table().DistinctNeighbors() {
			if seen[e.ID] {
				continue
			}
			seen[e.ID] = true
			probes++
			if p := m.NodeByID(e.ID); p == nil || p.Addr() != e.Addr {
				dead++
			}
		}
	}
	return probes, dead
}
