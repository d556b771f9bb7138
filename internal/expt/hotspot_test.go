package expt

import "testing"

// TestHotspotAcceptance pins the serving-layer claims of E-hotspot: under a
// Zipf(s=1.2) query storm, the locate-path cache strictly improves mean hops
// and per-node load concentration, costs at most 10% stretch, never serves a
// failed query path abnormally (zero exhaustions), and actually gets used
// (non-trivial hit rate).
func TestHotspotAcceptance(t *testing.T) {
	p := QuickParams()
	for _, seed := range []int64{3, 17} {
		runs := runHotspotCell(seed, p.HotspotN, p.HotspotObjects, p.HotspotQueries)
		if len(runs) != 3 {
			t.Fatalf("seed %d: %d runs, want 3", seed, len(runs))
		}
		off, on, dir := runs[0], runs[1], runs[2]

		for _, r := range runs {
			if r.Found.Value() < 1 {
				t.Errorf("seed %d %s: availability %s, want 100%%", seed, r.System, r.Found.String())
			}
		}
		if off.Exhausted != 0 || on.Exhausted != 0 {
			t.Errorf("seed %d: exhausted queries off=%d on=%d, want 0 (routing loop or hop-budget bug)",
				seed, off.Exhausted, on.Exhausted)
		}
		if on.Hops.Mean() >= off.Hops.Mean() {
			t.Errorf("seed %d: cached mean hops %.3f not strictly better than uncached %.3f",
				seed, on.Hops.Mean(), off.Hops.Mean())
		}
		if on.LoadMaxMean() >= off.LoadMaxMean() {
			t.Errorf("seed %d: cached load max/mean %.3f not strictly better than uncached %.3f",
				seed, on.LoadMaxMean(), off.LoadMaxMean())
		}
		if on.Stretch.Mean() > 1.1*off.Stretch.Mean() {
			t.Errorf("seed %d: cached stretch %.3f exceeds 1.1x uncached %.3f",
				seed, on.Stretch.Mean(), off.Stretch.Mean())
		}
		if on.HitRate <= 0.25 {
			t.Errorf("seed %d: cache hit rate %.3f suspiciously low for a Zipf storm", seed, on.HitRate)
		}
		// The strawman stays a strawman: the central directory concentrates
		// load far beyond either overlay configuration.
		if dir.LoadMaxMean() <= off.LoadMaxMean() {
			t.Errorf("seed %d: directory load max/mean %.3f not worse than tapestry %.3f",
				seed, dir.LoadMaxMean(), off.LoadMaxMean())
		}
	}
}

// TestHotspotCacheOffTwinIsByteIdenticalToDefault guards the determinism
// contract: a mesh built with LocateCacheCap=0 must behave bit-identically
// to one that never heard of the serving layer — the E-hotspot cache-off row
// doubles as that oracle, byte-compared here against a fresh run.
func TestHotspotCacheOffTwinIsByteIdenticalToDefault(t *testing.T) {
	a := hotspotDef(96, 48, 512).Run(11, 1).String()
	b := hotspotDef(96, 48, 512).Run(11, 1).String()
	if a != b {
		t.Fatalf("E-hotspot not deterministic:\n%s\nvs\n%s", a, b)
	}
}
