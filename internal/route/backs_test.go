package route

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// mapBacks is the per-level map backpointer store the CSR layout replaced,
// kept here as a differential oracle: Table's backpointer methods must be
// observationally identical to it under any op stream.
type mapBacks struct {
	back []map[ids.ID]Entry
}

func newMapBacks(levels int) *mapBacks {
	m := &mapBacks{back: make([]map[ids.ID]Entry, levels)}
	for l := range m.back {
		m.back[l] = make(map[ids.ID]Entry)
	}
	return m
}

func (m *mapBacks) add(level int, e Entry) { m.back[level][e.ID] = e }

func (m *mapBacks) remove(level int, id ids.ID) { delete(m.back[level], id) }

// removeAll is the backpointer half of Table.Remove.
func (m *mapBacks) removeAll(id ids.ID) {
	for l := range m.back {
		delete(m.back[l], id)
	}
}

func (m *mapBacks) count(level int) int { return len(m.back[level]) }

func (m *mapBacks) backs(level int) []Entry {
	out := make([]Entry, 0, len(m.back[level]))
	for _, e := range m.back[level] {
		out = append(out, e)
	}
	sortEntries(out)
	return out
}

// appendBacks is the old single-level fold: map order, then an in-place
// insertion sort by ID.
func (m *mapBacks) appendBacks(dst []Entry, level int) []Entry {
	base := len(dst)
	for _, e := range m.back[level] {
		dst = append(dst, e)
	}
	tail := dst[base:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j].ID.Less(tail[j-1].ID); j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return dst
}

func (m *mapBacks) allBacks() map[int][]Entry {
	out := make(map[int][]Entry, len(m.back))
	for l := range m.back {
		if len(m.back[l]) > 0 {
			out[l] = m.backs(l)
		}
	}
	return out
}

// renderLevels renders each level's AppendBacks range separately, so a test
// can tell which levels an op touched.
func renderLevels(tbl *Table) []string {
	out := make([]string, tbl.Levels())
	for l := range out {
		out[l] = renderSlice(tbl.AppendBacks(nil, l, l+1))
	}
	return out
}

// checkBacksAgainstOracle compares every backpointer read path of tbl with
// the map oracle.
func checkBacksAgainstOracle(t *testing.T, tbl *Table, ora *mapBacks, where string) {
	t.Helper()
	levels := tbl.Levels()
	for l := 0; l < levels; l++ {
		if got, want := tbl.BackCount(l), ora.count(l); got != want {
			t.Fatalf("%s: BackCount(%d) = %d, want %d", where, l, got, want)
		}
		if got, want := renderSlice(tbl.Backs(l)), renderSlice(ora.backs(l)); got != want {
			t.Fatalf("%s: Backs(%d)\n got %s\nwant %s", where, l, got, want)
		}
	}
	// Every band [lo, hi) must equal the per-level fold callers used to run.
	for lo := 0; lo <= levels; lo++ {
		for hi := lo; hi <= levels; hi++ {
			var want []Entry
			for l := lo; l < hi; l++ {
				want = ora.appendBacks(want, l)
			}
			if got := tbl.AppendBacks(nil, lo, hi); renderSlice(got) != renderSlice(want) {
				t.Fatalf("%s: AppendBacks(%d, %d)\n got %s\nwant %s", where, lo, hi, renderSlice(got), renderSlice(want))
			}
		}
	}
	all, wantAll := tbl.AllBacks(), ora.allBacks()
	if len(all) != levels {
		t.Fatalf("%s: AllBacks has %d levels, want %d", where, len(all), levels)
	}
	for l, got := range all {
		want, ok := wantAll[l]
		if ok != (got != nil) || renderSlice(got) != renderSlice(want) {
			t.Fatalf("%s: AllBacks[%d]\n got %s\nwant %s", where, l, renderSlice(got), renderSlice(want))
		}
	}
}

// TestBackpointersDifferentialAgainstMaps drives the CSR backpointer store
// and the map oracle through identical seeded AddBack / RemoveBack / Remove
// streams over a small ID universe, so re-adds and in-place updates are
// frequent, and compares every read path after every op. A single-level op
// must leave every other level's range untouched.
func TestBackpointersDifferentialAgainstMaps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := spec.Random(rng)
		tbl := New(spec, owner, 7, 2)
		ora := newMapBacks(spec.Digits)
		universe := make([]ids.ID, 24)
		for i := range universe {
			universe[i] = spec.Random(rng)
		}
		for op := 0; op < 600; op++ {
			id := universe[rng.Intn(len(universe))]
			level := rng.Intn(spec.Digits)
			before := renderLevels(tbl)
			singleLevel := true
			switch rng.Intn(8) {
			case 0, 1, 2, 3: // AddBack: an insert, or an update in place
				e := Entry{
					ID:       id,
					Addr:     netsim.Addr(rng.Intn(100)),
					Distance: float64(rng.Intn(20)) / 4,
				}
				tbl.AddBack(level, e)
				ora.add(level, e)
			case 4, 5, 6: // RemoveBack, present or not
				tbl.RemoveBack(level, id)
				ora.remove(level, id)
			case 7: // Remove clears the ID at every level
				tbl.Remove(id)
				ora.removeAll(id)
				singleLevel = false
			}
			checkBacksAgainstOracle(t, tbl, ora, fmt.Sprintf("seed %d op %d", seed, op))
			if singleLevel {
				after := renderLevels(tbl)
				for l := range after {
					if l != level && after[l] != before[l] {
						t.Fatalf("seed %d op %d: level-%d op changed level %d", seed, op, level, l)
					}
				}
			}
		}
	}
}

// TestLoadBacksMatchesAddBack pins the bulk path: loading a sorted block
// yields the same table as adding the entries one by one, and LoadBacks
// rejects input that breaks the layout.
func TestLoadBacksMatchesAddBack(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	owner := spec.Random(rng)
	want := New(spec, owner, 0, 2)
	var backs []Entry
	boff := make([]int32, spec.Digits+1)
	for l := 0; l < spec.Digits; l++ {
		var level []Entry
		for i := 0; i < 2*l; i++ {
			e := Entry{ID: spec.Random(rng), Addr: netsim.Addr(i), Distance: rng.Float64()}
			if !slices.ContainsFunc(level, func(x Entry) bool { return x.ID.Equal(e.ID) }) {
				level = append(level, e)
				want.AddBack(l, e)
			}
		}
		slices.SortFunc(level, func(a, b Entry) int { return a.ID.Compare(b.ID) })
		backs = append(backs, level...)
		boff[l+1] = int32(len(backs))
	}
	got := New(spec, owner, 0, 2)
	got.LoadBacks(backs, boff)
	if g, w := strings.Join(renderLevels(got), "|"), strings.Join(renderLevels(want), "|"); g != w {
		t.Fatalf("LoadBacks\n got %s\nwant %s", g, w)
	}

	last := spec.Digits - 1
	unsorted := slices.Clone(backs)
	r := unsorted[boff[last]:boff[last+1]]
	r[0], r[1] = r[1], r[0]
	dup := slices.Clone(backs)
	dup[boff[last]+1].ID = dup[boff[last]].ID
	short := slices.Clone(boff)
	short[spec.Digits]--
	for name, load := range map[string]func(*Table){
		"unsorted level": func(tb *Table) { tb.LoadBacks(unsorted, boff) },
		"duplicate ID":   func(tb *Table) { tb.LoadBacks(dup, boff) },
		"short offsets":  func(tb *Table) { tb.LoadBacks(backs, short) },
		"offset count":   func(tb *Table) { tb.LoadBacks(backs, boff[:spec.Digits]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LoadBacks with %s must panic", name)
				}
			}()
			load(New(spec, owner, 0, 2))
		}()
	}
}

// TestBackpointerPathsDoNotAllocate pins the CSR layout's allocation
// contract: a band fold into a pre-sized dst and an update of a present
// backpointer allocate nothing.
func TestBackpointerPathsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := New(spec, spec.Random(rng), 0, 2)
	var present []Entry
	for i := 0; i < 40; i++ {
		e := Entry{ID: spec.Random(rng), Addr: netsim.Addr(i), Distance: rng.Float64()}
		tbl.AddBack(i%spec.Digits, e)
		present = append(present, e)
	}
	dst := make([]Entry, 0, 64)
	if a := testing.AllocsPerRun(100, func() {
		dst = tbl.AppendBacks(dst[:0], 0, tbl.Levels())
	}); a != 0 {
		t.Errorf("AppendBacks into a pre-sized dst: %v allocs/op, want 0", a)
	}
	i := 0
	if a := testing.AllocsPerRun(100, func() {
		k := i % len(present)
		e := present[k]
		e.Distance += 1
		tbl.AddBack(k%spec.Digits, e)
		i++
	}); a != 0 {
		t.Errorf("AddBack of a present ID: %v allocs/op, want 0", a)
	}
}
