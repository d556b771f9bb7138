package route

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// legacyTable is the pre-SoA slice-of-slices layout, kept here verbatim as a
// differential oracle: the contiguous-block Table must be observationally
// identical to it under any op stream.
type legacyTable struct {
	spec   ids.Spec
	owner  ids.ID
	r      int
	sets   [][][]Entry
	pinned int
}

func newLegacy(spec ids.Spec, owner ids.ID, addr netsim.Addr, r int) *legacyTable {
	t := &legacyTable{spec: spec, owner: owner, r: r, sets: make([][][]Entry, spec.Digits)}
	for l := 0; l < spec.Digits; l++ {
		t.sets[l] = make([][]Entry, spec.Base)
	}
	self := Entry{ID: owner, Addr: addr, Distance: 0}
	for l := 0; l < spec.Digits; l++ {
		t.sets[l][owner.Digit(l)] = []Entry{self}
	}
	return t
}

func legacyRemoveAt(set []Entry, i int) []Entry { return append(set[:i:i], set[i+1:]...) }

func legacyLastUnpinned(set []Entry) int {
	for i := len(set) - 1; i >= 0; i-- {
		if !set[i].Pinned {
			return i
		}
	}
	return -1
}

func (t *legacyTable) qualifies(level int, id ids.ID) bool {
	return level < t.spec.Digits && ids.CommonPrefixLen(t.owner, id) >= level
}

func (t *legacyTable) add(level int, e Entry) (bool, []Entry) {
	if !t.qualifies(level, e.ID) {
		return false, nil
	}
	digit := e.ID.Digit(level)
	set := t.sets[level][digit]
	for i := range set {
		if set[i].ID.Equal(e.ID) {
			pinned := set[i].Pinned || e.Pinned
			if pinned && !set[i].Pinned {
				t.pinned++
			}
			set[i] = e
			set[i].Pinned = pinned
			sortEntries(set)
			t.sets[level][digit] = set
			return true, nil
		}
	}
	if e.Pinned {
		t.pinned++
	}
	set = append(set, e)
	sortEntries(set)
	unpinned := 0
	for _, x := range set {
		if !x.Pinned {
			unpinned++
		}
	}
	if unpinned > t.r && !e.Pinned {
		last := legacyLastUnpinned(set)
		if set[last].ID.Equal(e.ID) {
			t.sets[level][digit] = legacyRemoveAt(set, last)
			return false, nil
		}
	}
	var evicted []Entry
	for unpinned > t.r {
		last := legacyLastUnpinned(set)
		evicted = append(evicted, set[last])
		set = legacyRemoveAt(set, last)
		unpinned--
	}
	t.sets[level][digit] = set
	return true, evicted
}

func (t *legacyTable) remove(id ids.ID) (levels []int) {
	for l := 0; l < t.spec.Digits; l++ {
		found := false
		for d := range t.sets[l] {
			for i := range t.sets[l][d] {
				if t.sets[l][d][i].ID.Equal(id) {
					if t.sets[l][d][i].Pinned {
						t.pinned--
					}
					t.sets[l][d] = legacyRemoveAt(t.sets[l][d], i)
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if found {
			levels = append(levels, l)
		}
	}
	return levels
}

func (t *legacyTable) pin(level int, id ids.ID) bool {
	digit := id.Digit(level)
	for i := range t.sets[level][digit] {
		if t.sets[level][digit][i].ID.Equal(id) {
			if !t.sets[level][digit][i].Pinned {
				t.pinned++
			}
			t.sets[level][digit][i].Pinned = true
			return true
		}
	}
	return false
}

func (t *legacyTable) unpin(level int, id ids.ID) (evicted []Entry) {
	digit := id.Digit(level)
	set := t.sets[level][digit]
	for i := range set {
		if set[i].ID.Equal(id) {
			if set[i].Pinned {
				t.pinned--
			}
			set[i].Pinned = false
		}
	}
	unpinned := 0
	for _, x := range set {
		if !x.Pinned {
			unpinned++
		}
	}
	for unpinned > t.r {
		last := legacyLastUnpinned(set)
		evicted = append(evicted, set[last])
		set = legacyRemoveAt(set, last)
		unpinned--
	}
	t.sets[level][digit] = set
	return evicted
}

func (t *legacyTable) markLeaving(id ids.ID) bool {
	found := false
	for l := 0; l < t.spec.Digits; l++ {
		for d := range t.sets[l] {
			for i := range t.sets[l][d] {
				if t.sets[l][d][i].ID.Equal(id) {
					t.sets[l][d][i].Leaving = true
					found = true
				}
			}
			sortEntries(t.sets[l][d])
		}
	}
	return found
}

// render serializes every slot byte-for-byte comparably.
func renderEntries(w *strings.Builder, set []Entry) {
	for _, e := range set {
		fmt.Fprintf(w, "{%v a%d d%.6f p%v l%v}", e.ID, e.Addr, e.Distance, e.Pinned, e.Leaving)
	}
}

func (t *legacyTable) render() string {
	var w strings.Builder
	for l := 0; l < t.spec.Digits; l++ {
		for d := 0; d < t.spec.Base; d++ {
			fmt.Fprintf(&w, "[%d,%d]", l, d)
			renderEntries(&w, t.sets[l][d])
			w.WriteByte('\n')
		}
	}
	fmt.Fprintf(&w, "pinned=%d\n", t.pinned)
	return w.String()
}

func renderTable(t *Table) string {
	var w strings.Builder
	for l := 0; l < t.Levels(); l++ {
		for d := 0; d < t.Base(); d++ {
			fmt.Fprintf(&w, "[%d,%d]", l, d)
			renderEntries(&w, t.SetView(l, ids.Digit(d)))
			w.WriteByte('\n')
		}
	}
	fmt.Fprintf(&w, "pinned=%d\n", t.PinnedCount())
	return w.String()
}

func renderSlice(set []Entry) string {
	var w strings.Builder
	renderEntries(&w, set)
	return w.String()
}

// nextHopOracle is the minimal primary-pick routing decision both layouts
// must agree on: the first non-leaving (else first) entry of the slot.
func primaryOf(set []Entry) (Entry, bool) {
	for _, e := range set {
		if !e.Leaving {
			return e, true
		}
	}
	if len(set) > 0 {
		return set[0], true
	}
	return Entry{}, false
}

// TestDifferentialAgainstLegacyLayout drives the old [][][]Entry oracle and
// the contiguous SoA table through an identical seeded op stream and demands
// byte-identical contents and identical return values after every op.
func TestDifferentialAgainstLegacyLayout(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := spec.Random(rng)
		tbl := New(spec, owner, 7, 2)
		ora := newLegacy(spec, owner, 7, 2)

		// A fixed universe of candidate IDs keeps Remove/Pin hitting entries
		// that actually exist often enough to exercise every path.
		universe := make([]ids.ID, 48)
		for i := range universe {
			// Bias toward sharing a prefix with the owner so deep levels fill.
			v := spec.Random(rng)
			if cut := rng.Intn(spec.Digits + 1); cut > 0 {
				digs := make([]ids.Digit, spec.Digits)
				for j := 0; j < spec.Digits; j++ {
					if j < cut {
						digs[j] = owner.Digit(j)
					} else {
						digs[j] = v.Digit(j)
					}
				}
				v = spec.Make(digs)
			}
			universe[i] = v
		}

		for op := 0; op < 4000; op++ {
			id := universe[rng.Intn(len(universe))]
			level := rng.Intn(spec.Digits)
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // Add
				e := Entry{
					ID:       id,
					Addr:     netsim.Addr(rng.Intn(100)),
					Distance: float64(rng.Intn(50)) / 4,
					Pinned:   rng.Intn(8) == 0,
				}
				ga, ge := tbl.Add(level, e)
				wa, we := ora.add(level, e)
				if ga != wa || renderSlice(ge) != renderSlice(we) {
					t.Fatalf("seed %d op %d: Add mismatch: got (%v,%s) want (%v,%s)",
						seed, op, ga, renderSlice(ge), wa, renderSlice(we))
				}
			case 5: // Remove
				gl := tbl.Remove(id)
				wl := ora.remove(id)
				if fmt.Sprint(gl) != fmt.Sprint(wl) {
					t.Fatalf("seed %d op %d: Remove levels: got %v want %v", seed, op, gl, wl)
				}
			case 6: // Pin
				if tbl.Pin(level, id) != ora.pin(level, id) {
					t.Fatalf("seed %d op %d: Pin mismatch", seed, op)
				}
			case 7: // Unpin
				ge := tbl.Unpin(level, id)
				we := ora.unpin(level, id)
				if renderSlice(ge) != renderSlice(we) {
					t.Fatalf("seed %d op %d: Unpin evictions: got %s want %s",
						seed, op, renderSlice(ge), renderSlice(we))
				}
			case 8: // MarkLeaving
				if tbl.MarkLeaving(id) != ora.markLeaving(id) {
					t.Fatalf("seed %d op %d: MarkLeaving mismatch", seed, op)
				}
			case 9: // read-only probes: SetView + primary (nextHop's pick)
				d := ids.Digit(rng.Intn(spec.Base))
				if renderSlice(tbl.SetView(level, d)) != renderSlice(ora.sets[level][d]) {
					t.Fatalf("seed %d op %d: SetView(%d,%d) diverged", seed, op, level, d)
				}
				ge, gok := tbl.Primary(level, d)
				we, wok := primaryOf(ora.sets[level][d])
				if gok != wok || (gok && renderSlice([]Entry{ge}) != renderSlice([]Entry{we})) {
					t.Fatalf("seed %d op %d: Primary(%d,%d) diverged", seed, op, level, d)
				}
			}
			if got, want := renderTable(tbl), ora.render(); got != want {
				t.Fatalf("seed %d op %d: tables diverged:\ngot:\n%s\nwant:\n%s", seed, op, got, want)
			}
		}
	}
}

// addInsertThenEvict is Table.Add as it was before the full-slot early
// rejection: every new entry is inserted, then the capacity bound evicts the
// farthest unpinned entries again, possibly the newcomer itself. It is the
// oracle for TestAddEarlyRejectMatchesInsertThenEvict.
func (t *Table) addInsertThenEvict(level int, e Entry) (added bool, evicted []Entry) {
	if !t.qualifies(level, e.ID) {
		return false, nil
	}
	s := t.slot(level, e.ID.Digit(level))
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if t.ents[i].ID.Equal(e.ID) {
			pinned := t.ents[i].Pinned || e.Pinned
			if pinned && !t.ents[i].Pinned {
				t.pinned++
			}
			e.Pinned = pinned
			t.removeIdx(s, i)
			t.insertSorted(s, e)
			return true, nil
		}
	}
	if e.Pinned {
		t.pinned++
	}
	t.insertSorted(s, e)
	unpinned := 0
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if !t.ents[i].Pinned {
			unpinned++
		}
	}
	if unpinned > t.r && !e.Pinned {
		last := t.lastUnpinnedIdx(s)
		if t.ents[last].ID.Equal(e.ID) {
			t.removeIdx(s, last)
			return false, nil
		}
	}
	for unpinned > t.r {
		last := t.lastUnpinnedIdx(s)
		evicted = append(evicted, t.ents[last])
		t.removeIdx(s, last)
		unpinned--
	}
	return true, evicted
}

// TestAddEarlyRejectMatchesInsertThenEvict drives Add and the insert-then-
// evict oracle through identical random op streams — pinned and unpinned
// offers, re-adds with new distances, Removes, and runs of offers in
// ascending distance as static builds make them — and demands identical
// return values and identical tables after every op.
func TestAddEarlyRejectMatchesInsertThenEvict(t *testing.T) {
	rejected := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := spec.Random(rng)
		r := 1 + int(seed)%3
		tbl := New(spec, owner, 7, r)
		ora := New(spec, owner, 7, r)
		universe := make([]ids.ID, 40)
		for i := range universe {
			universe[i] = spec.Random(rng)
		}
		rising := 0.0
		for op := 0; op < 4000; op++ {
			id := universe[rng.Intn(len(universe))]
			level := ids.CommonPrefixLen(owner, id)
			if level == spec.Digits {
				continue
			}
			level = rng.Intn(level + 1)
			switch rng.Intn(8) {
			case 0: // Remove
				if got, want := tbl.Remove(id), ora.Remove(id); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d op %d: Remove levels: got %v want %v", seed, op, got, want)
				}
				continue
			case 1, 2: // offer in ascending distance, as BuildStaticWith does
				rising += float64(rng.Intn(3)) / 2
			default: // random distance, often tying
				rising = float64(rng.Intn(20)) / 2
			}
			e := Entry{ID: id, Addr: netsim.Addr(rng.Intn(100)), Distance: rising, Pinned: rng.Intn(6) == 0}
			ga, ge := tbl.Add(level, e)
			wa, we := ora.addInsertThenEvict(level, e)
			if ga != wa || !slices.Equal(ge, we) {
				t.Fatalf("seed %d op %d: Add mismatch: got (%v,%s) want (%v,%s)",
					seed, op, ga, renderSlice(ge), wa, renderSlice(we))
			}
			if !ga && !e.Pinned {
				rejected++
			}
			if !slices.Equal(tbl.ents, ora.ents) || !slices.Equal(tbl.off, ora.off) || tbl.pinned != ora.pinned {
				t.Fatalf("seed %d op %d: tables diverged:\ngot:\n%s\nwant:\n%s", seed, op, renderTable(tbl), renderTable(ora))
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no offer hit a full slot; the stream does not exercise the early rejection")
	}
}

// TestRangeViewMatchesSetViews pins RangeView's contract: the level band is
// exactly the concatenation of its SetViews in (level, digit) order.
func TestRangeViewMatchesSetViews(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	owner := spec.Random(rng)
	tbl := New(spec, owner, 0, 3)
	for i := 0; i < 200; i++ {
		v := spec.Random(rng)
		tbl.Add(ids.CommonPrefixLen(owner, v), Entry{ID: v, Addr: netsim.Addr(i), Distance: rng.Float64()})
	}
	for lo := 0; lo <= spec.Digits; lo++ {
		for hi := lo; hi <= spec.Digits; hi++ {
			var want []Entry
			for l := lo; l < hi; l++ {
				for d := 0; d < spec.Base; d++ {
					want = append(want, tbl.SetView(l, ids.Digit(d))...)
				}
			}
			if renderSlice(tbl.RangeView(lo, hi)) != renderSlice(want) {
				t.Fatalf("RangeView(%d,%d) != concatenated SetViews", lo, hi)
			}
		}
	}
}

// TestSetViewConcurrentReaders hammers the contiguous block with parallel
// read-only scans (SetView, RangeView, Primary, ForEachNeighbor) under
// -race: the read path must not mutate or lazily materialize anything.
func TestSetViewConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	owner := spec.Random(rng)
	tbl := New(spec, owner, 0, 3)
	for i := 0; i < 100; i++ {
		v := spec.Random(rng)
		tbl.Add(ids.CommonPrefixLen(owner, v), Entry{ID: v, Addr: netsim.Addr(i), Distance: rng.Float64()})
	}
	want := renderTable(tbl)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				if renderTable(tbl) != want {
					t.Error("concurrent read diverged")
					return
				}
				tbl.RangeView(0, tbl.Levels())
				tbl.ForEachNeighbor(func(int, Entry) {})
				tbl.OnlyNodeWithPrefix(owner.Prefix(0))
				for l := 0; l < tbl.Levels(); l++ {
					tbl.Primary(l, owner.Digit(l))
				}
			}
		}()
	}
	wg.Wait()
}

// TestAppendBacksSortedByID pins the deterministic-iteration helper: IDs
// ascend, content matches Backs, dst is extended in place.
func TestAppendBacksSortedByID(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	owner := spec.Random(rng)
	tbl := New(spec, owner, 0, 2)
	for i := 0; i < 30; i++ {
		v := spec.Random(rng)
		tbl.AddBack(1, Entry{ID: v, Addr: netsim.Addr(i), Distance: rng.Float64()})
	}
	dst := make([]Entry, 0, 32)
	dst = append(dst, Entry{ID: owner}) // pre-existing prefix must survive
	dst = tbl.AppendBacks(dst, 1, 2)
	if !dst[0].ID.Equal(owner) {
		t.Fatal("AppendBacks clobbered the dst prefix")
	}
	tail := dst[1:]
	if len(tail) != tbl.BackCount(1) {
		t.Fatalf("got %d backs, want %d", len(tail), tbl.BackCount(1))
	}
	if !sort.SliceIsSorted(tail, func(i, j int) bool { return tail[i].ID.Less(tail[j].ID) }) {
		t.Fatal("AppendBacks tail not in ascending ID order")
	}
	byDist := tbl.Backs(1)
	if len(byDist) != len(tail) {
		t.Fatal("AppendBacks and Backs disagree on membership")
	}
}
