// Package route implements the Tapestry neighbor table: for every prefix β
// of the owning node's ID and every digit j, the set N_{β,j} of up to R
// closest nodes whose IDs share the prefix β·j (Section 2.1). The first
// (closest) member of each set is the primary neighbor; the rest are
// secondary neighbors kept for fault-resilience. The table also stores
// backpointers (who points at me, per level) and the pinned-pointer state
// used by the simultaneous-insertion protocol of Section 4.4.
//
// Storage is struct-of-arrays: every neighbor set lives in ONE contiguous
// []Entry block, indexed by slot = level*base + digit through a compressed
// offset array (off[slot]..off[slot+1] brackets N_{β,j}). Per-hop scans —
// nextHop across a level's digits, multicast fan-out, whole-table folds —
// walk sequential memory instead of chasing [][][]Entry spines, and a whole
// level band is itself one contiguous range. Offsets rather than fixed-width
// slots keep a 100k-node mesh's tables compact: slots hold a handful of
// entries while level×base is large (112 slots at the planetary spec), so a
// fixed R-capacity slab would waste ~10× the memory this layout touches.
//
// Backpointers use the same layout with one range per level: a second
// []Entry block ordered by (level, ID) with offsets boff[level]..boff[level+1].
// Membership tests binary-search a level's range, and the §4.2 band fold
// (every backpointer at levels [lo, hi), level ascending, ID ascending) is
// one contiguous copy. A backpointer costs one 40-byte Entry and no map
// overhead, which is most of a large mesh's routing state.
//
// A Table is not internally synchronized: the owning node serializes access
// under its own lock, which is how per-node state is guarded everywhere in
// this codebase.
package route

import (
	"fmt"
	"slices"
	"sort"

	"tapestry/internal/ids"
	"tapestry/internal/netsim"
)

// Entry describes one neighbor link.
type Entry struct {
	ID       ids.ID
	Addr     netsim.Addr
	Distance float64 // metric distance from the table owner
	Pinned   bool    // pinned pointer: a mid-insertion node that must be retained and multicast to (Section 4.4)
	Leaving  bool    // the neighbor announced a voluntary departure (Section 5.1)
}

// Table is one node's complete routing state.
type Table struct {
	spec  ids.Spec
	owner ids.ID
	addr  netsim.Addr
	r     int
	slots int // spec.Digits * spec.Base

	// ents holds every neighbor set back to back, grouped by slot index
	// (level*base + digit), each set sorted by (distance, id). All pinned
	// entries are retained regardless of R; at most r unpinned entries are
	// kept per set.
	ents []Entry
	// off[s]..off[s+1] brackets slot s within ents; len(off) == slots+1.
	off []int32

	// backs holds backpointers — nodes that have the owner in their
	// level-`level` neighbor sets — level by level, each level sorted by ID.
	backs []Entry
	// boff[l]..boff[l+1] brackets level l within backs; len(boff) == Digits+1.
	boff []int32

	// pinned counts pinned entry instances across all sets, kept in sync by
	// Add/Pin/Unpin/Remove so PinnedCount is O(1).
	pinned int
}

// New creates an empty table for a node with the given ID and address. r is
// the neighbor-set capacity R >= 1 from Section 2.1 (the paper's deployed
// configuration uses a primary plus two backups, r = 3). The owner itself is
// inserted into every set it qualifies for, so routing can always "stay
// put"; this realizes surrogate routing's termination rule.
func New(spec ids.Spec, owner ids.ID, addr netsim.Addr, r int) *Table {
	if r < 1 {
		panic("route: neighbor-set capacity R must be >= 1")
	}
	t := &Table{
		spec:  spec,
		owner: owner,
		addr:  addr,
		r:     r,
		slots: spec.Digits * spec.Base,
		ents:  make([]Entry, 0, spec.Digits*(r+1)),
		off:   make([]int32, spec.Digits*spec.Base+1),
		boff:  make([]int32, spec.Digits+1),
	}
	// Self entries occupy ascending slot indices (one per level), so the CSR
	// block can be built in a single forward pass.
	self := Entry{ID: owner, Addr: addr, Distance: 0}
	cur := 0
	for l := 0; l < spec.Digits; l++ {
		s := l*spec.Base + int(owner.Digit(l))
		for ; cur <= s; cur++ {
			t.off[cur] = int32(len(t.ents))
		}
		t.ents = append(t.ents, self)
	}
	for ; cur <= t.slots; cur++ {
		t.off[cur] = int32(len(t.ents))
	}
	return t
}

// Owner returns the table owner's ID.
func (t *Table) Owner() ids.ID { return t.owner }

// Addr returns the table owner's network address.
func (t *Table) Addr() netsim.Addr { return t.addr }

// R returns the neighbor-set capacity.
func (t *Table) R() int { return t.r }

// Levels returns the number of routing-table levels (= digits per ID).
func (t *Table) Levels() int { return t.spec.Digits }

// Base returns the digit radix.
func (t *Table) Base() int { return t.spec.Base }

func (t *Table) slot(level int, digit ids.Digit) int {
	return level*t.spec.Base + int(digit)
}

// qualifies reports whether id may appear at the given level: it must share
// the owner's first `level` digits (so that it is a (β, j) node for β the
// owner's level-length prefix).
func (t *Table) qualifies(level int, id ids.ID) bool {
	return level < t.spec.Digits && ids.CommonPrefixLen(t.owner, id) >= level
}

// PinnedCount returns the number of pinned entry instances across all
// slots — a fast-path check so multicasts can skip the in-flight-inserter
// scan entirely when no insertion is pinned here.
func (t *Table) PinnedCount() int { return t.pinned }

func entryLess(a, b Entry) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID.Less(b.ID)
}

// insertSorted places e into slot s at its (distance, id) rank, shifting the
// tail of the block and the downstream offsets.
func (t *Table) insertSorted(s int, e Entry) {
	lo, hi := int(t.off[s]), int(t.off[s+1])
	pos := hi
	for i := lo; i < hi; i++ {
		if entryLess(e, t.ents[i]) {
			pos = i
			break
		}
	}
	t.ents = append(t.ents, Entry{})
	copy(t.ents[pos+1:], t.ents[pos:])
	t.ents[pos] = e
	for j := s + 1; j <= t.slots; j++ {
		t.off[j]++
	}
}

// removeIdx deletes ents[i] from slot s, closing the gap.
func (t *Table) removeIdx(s, i int) {
	copy(t.ents[i:], t.ents[i+1:])
	t.ents = t.ents[:len(t.ents)-1]
	for j := s + 1; j <= t.slots; j++ {
		t.off[j]--
	}
}

// lastUnpinnedIdx returns the block index of the farthest unpinned entry of
// slot s, or -1.
func (t *Table) lastUnpinnedIdx(s int) int {
	for i := int(t.off[s+1]) - 1; i >= int(t.off[s]); i-- {
		if !t.ents[i].Pinned {
			return i
		}
	}
	return -1
}

// Add inserts a neighbor at the given level, keeping the set sorted by
// distance and bounded by R (pinned entries never count against nor get
// evicted by the bound). It returns whether the entry is now present and
// any unpinned entries evicted to make room (the caller must retract its
// backpointers at those nodes). Re-adding an existing ID updates it in
// place.
func (t *Table) Add(level int, e Entry) (added bool, evicted []Entry) {
	if !t.qualifies(level, e.ID) {
		return false, nil
	}
	s := t.slot(level, e.ID.Digit(level))

	// Update in place if already present (re-rank, since the distance may
	// have changed; a pin is sticky). The same scan counts the unpinned
	// entries and finds the farthest of them.
	unpinned, last := 0, -1
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
		if !t.ents[i].Pinned {
			unpinned++
			last = i
		}
	}

	if e.Pinned {
		t.pinned++
	} else {
		// A full set rejects a newcomer that would rank after its farthest
		// unpinned entry before touching storage: it would be evicted at
		// once. Static builds offer peers nearest first, so this is the
		// common case once a slot fills.
		if unpinned >= t.r && entryLess(t.ents[last], e) {
			return false, nil
		}
		unpinned++
	}
	t.insertSorted(s, e)

	// Enforce capacity over unpinned entries only.
	for unpinned > t.r {
		last := t.lastUnpinnedIdx(s)
		evicted = append(evicted, t.ents[last])
		t.removeIdx(s, last)
		unpinned--
	}
	return true, evicted
}

func sortEntries(set []Entry) {
	sort.Slice(set, func(i, j int) bool { return entryLess(set[i], set[j]) })
}

// Remove deletes the identified neighbor from every set and every level of
// backpointers it appears in, returning the levels at which a forward link
// was removed.
func (t *Table) Remove(id ids.ID) (levels []int) {
	for l := 0; l < t.spec.Digits; l++ {
		s := t.slot(l, id.Digit(l))
		for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
			if t.ents[i].ID.Equal(id) {
				if t.ents[i].Pinned {
					t.pinned--
				}
				t.removeIdx(s, i)
				levels = append(levels, l)
				break
			}
		}
		t.RemoveBack(l, id)
	}
	return levels
}

// Set returns a copy of N_{β,j} at (level, digit), primary first.
func (t *Table) Set(level int, digit ids.Digit) []Entry {
	src := t.SetView(level, digit)
	out := make([]Entry, len(src))
	copy(out, src)
	return out
}

// SetView returns N_{β,j} at (level, digit), primary first, WITHOUT copying:
// the returned slice aliases the table's own storage. The caller must hold
// the owning node's lock, must treat the slice as read-only, and must not
// retain it across any table mutation. This is the allocation-free read path
// for per-hop routing decisions, where Set's defensive copy dominated the
// routing cost.
func (t *Table) SetView(level int, digit ids.Digit) []Entry {
	s := t.slot(level, digit)
	return t.ents[t.off[s]:t.off[s+1]]
}

// RangeView returns the storage of every neighbor set of levels [lo, hi) as
// one contiguous slice: slot-grouped, ascending (level, digit), each set
// sorted by (distance, id). Whole-band folds (the §4.2 search engine seeding
// from a peer's table, audits) copy or scan this in a single pass instead of
// base×levels SetView calls. Same aliasing contract as SetView.
func (t *Table) RangeView(lo, hi int) []Entry {
	return t.ents[t.off[lo*t.spec.Base]:t.off[hi*t.spec.Base]]
}

// Primary returns the closest non-leaving neighbor at (level, digit). If all
// entries are marked leaving it falls back to the closest entry, so routing
// keeps working during a graceful departure window ("incoming queries still
// route normally to A while it is marked leaving").
func (t *Table) Primary(level int, digit ids.Digit) (Entry, bool) {
	set := t.SetView(level, digit)
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

// HasHole reports whether N_{β,j} is empty — a "hole" in the paper's
// vocabulary (Property 1 demands a hole only exists when no (β, j) node
// exists anywhere).
func (t *Table) HasHole(level int, digit ids.Digit) bool {
	s := t.slot(level, digit)
	return t.off[s] == t.off[s+1]
}

// Contains reports whether id is a forward neighbor at the given level.
func (t *Table) Contains(level int, id ids.ID) bool {
	for _, e := range t.SetView(level, id.Digit(level)) {
		if e.ID.Equal(id) {
			return true
		}
	}
	return false
}

// WouldImprove reports whether adding (id, distance) at level would either
// fill a hole or displace a strictly farther unpinned member of a full set;
// i.e. whether the candidate belongs in the table under Property 2.
func (t *Table) WouldImprove(level int, id ids.ID, distance float64) bool {
	if !t.qualifies(level, id) || t.Contains(level, id) {
		return false
	}
	s := t.slot(level, id.Digit(level))
	if t.off[s] == t.off[s+1] {
		return true
	}
	unpinned := 0
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if !t.ents[i].Pinned {
			unpinned++
		}
	}
	if unpinned < t.r {
		return true
	}
	return distance < t.ents[t.lastUnpinnedIdx(s)].Distance
}

// MarkLeaving flags id wherever it appears (Section 5.1 first-phase delete
// notification). It reports whether any link was found. Sort order is
// unaffected: entries rank by (distance, id) only.
func (t *Table) MarkLeaving(id ids.ID) bool {
	found := false
	for i := range t.ents {
		if t.ents[i].ID.Equal(id) {
			t.ents[i].Leaving = true
			found = true
		}
	}
	return found
}

// Pin marks the identified entry at level as a pinned pointer; Unpin clears
// the mark and re-applies the capacity bound (evicting overflow, returned to
// the caller for backpointer cleanup).
func (t *Table) Pin(level int, id ids.ID) bool {
	s := t.slot(level, id.Digit(level))
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if t.ents[i].ID.Equal(id) {
			if !t.ents[i].Pinned {
				t.pinned++
			}
			t.ents[i].Pinned = true
			return true
		}
	}
	return false
}

// Unpin clears a pinned pointer and enforces R, returning evicted entries.
func (t *Table) Unpin(level int, id ids.ID) (evicted []Entry) {
	s := t.slot(level, id.Digit(level))
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if t.ents[i].ID.Equal(id) {
			if t.ents[i].Pinned {
				t.pinned--
			}
			t.ents[i].Pinned = false
		}
	}
	unpinned := 0
	for i := int(t.off[s]); i < int(t.off[s+1]); i++ {
		if !t.ents[i].Pinned {
			unpinned++
		}
	}
	for unpinned > t.r {
		last := t.lastUnpinnedIdx(s)
		evicted = append(evicted, t.ents[last])
		t.removeIdx(s, last)
		unpinned--
	}
	return evicted
}

// PinnedAt returns the pinned entries of N_{β,j}.
func (t *Table) PinnedAt(level int, digit ids.Digit) []Entry {
	var out []Entry
	for _, e := range t.SetView(level, digit) {
		if e.Pinned {
			out = append(out, e)
		}
	}
	return out
}

// OnlyNodeWithPrefix reports whether, as far as this table knows, the owner
// is the only node whose ID starts with p (which must be a prefix of the
// owner). Because every entry at level l >= p.Len() shares the owner's
// first l digits, scanning those rows for any non-self entry is a complete
// local test whenever R >= 2 (the owner occupies at most one slot per set).
// With the contiguous layout those rows are one tail range of the block.
func (t *Table) OnlyNodeWithPrefix(p ids.Prefix) bool {
	if !t.owner.HasPrefix(p) {
		panic(fmt.Sprintf("route: prefix %v is not a prefix of owner %v", p, t.owner))
	}
	for _, e := range t.RangeView(p.Len(), t.spec.Digits) {
		if !e.ID.Equal(t.owner) {
			return false
		}
	}
	return true
}

// ForEachNeighbor invokes fn once per distinct (level, entry) forward link,
// excluding the owner's self entries, in ascending (level, digit, rank)
// order.
func (t *Table) ForEachNeighbor(fn func(level int, e Entry)) {
	s := 0
	for i, e := range t.ents {
		for int(t.off[s+1]) <= i {
			s++
		}
		if !e.ID.Equal(t.owner) {
			fn(s/t.spec.Base, e)
		}
	}
}

// NeighborCount returns the number of forward links excluding self entries
// (the "space" measurement of Table 1).
func (t *Table) NeighborCount() int {
	n := 0
	for i := range t.ents {
		if !t.ents[i].ID.Equal(t.owner) {
			n++
		}
	}
	return n
}

// DistinctNeighbors returns each distinct neighbor (excluding self) once,
// at its smallest level of appearance.
func (t *Table) DistinctNeighbors() []Entry {
	seen := map[ids.ID]struct{}{}
	out := []Entry{}
	t.ForEachNeighbor(func(_ int, e Entry) {
		if _, ok := seen[e.ID]; !ok {
			seen[e.ID] = struct{}{}
			out = append(out, e)
		}
	})
	sortEntries(out)
	return out
}

// Compact releases the spare capacity of the forward block. Static builders
// call it once a table's fill is complete; a later Add grows the block again.
func (t *Table) Compact() {
	if cap(t.ents) > len(t.ents) {
		t.ents = append(make([]Entry, 0, len(t.ents)), t.ents...)
	}
}

// findBack binary-searches level's backpointer range for id, returning the
// index in backs where it is or would be inserted, and whether it is present.
func (t *Table) findBack(level int, id ids.ID) (int, bool) {
	lo, hi := int(t.boff[level]), int(t.boff[level+1])
	i, found := slices.BinarySearchFunc(t.backs[lo:hi], id, func(e Entry, id ids.ID) int {
		return e.ID.Compare(id)
	})
	return lo + i, found
}

// AddBack records that `e` holds the owner in its level-`level` neighbor
// sets. Re-adding a present ID updates its entry in place.
func (t *Table) AddBack(level int, e Entry) {
	i, found := t.findBack(level, e.ID)
	if found {
		t.backs[i] = e
		return
	}
	t.backs = slices.Insert(t.backs, i, e)
	for l := level + 1; l < len(t.boff); l++ {
		t.boff[l]++
	}
}

// RemoveBack removes a backpointer.
func (t *Table) RemoveBack(level int, id ids.ID) {
	i, found := t.findBack(level, id)
	if !found {
		return
	}
	t.backs = slices.Delete(t.backs, i, i+1)
	for l := level + 1; l < len(t.boff); l++ {
		t.boff[l]--
	}
}

// LoadBacks replaces every backpointer with backs, which the table takes
// ownership of (boff is copied): boff[l]..boff[l+1] must bracket level l,
// and each level's range must be strictly ascending by ID — the layout
// AddBack maintains. It panics otherwise. This is the bulk path for static
// builders, which know every backpointer up front and size backs exactly.
func (t *Table) LoadBacks(backs []Entry, boff []int32) {
	if len(boff) != t.spec.Digits+1 || boff[0] != 0 || int(boff[t.spec.Digits]) != len(backs) {
		panic("route: LoadBacks offsets do not bracket the backpointers")
	}
	for l := 0; l < t.spec.Digits; l++ {
		if boff[l] > boff[l+1] {
			panic("route: LoadBacks offsets must not decrease")
		}
		for i := boff[l] + 1; i < boff[l+1]; i++ {
			if !backs[i-1].ID.Less(backs[i].ID) {
				panic(fmt.Sprintf("route: LoadBacks level %d is not strictly ascending by ID", l))
			}
		}
	}
	t.backs = backs
	copy(t.boff, boff)
}

// BackCount returns the number of backpointers at a level.
func (t *Table) BackCount(level int) int { return int(t.boff[level+1] - t.boff[level]) }

// Backs returns a copy of the backpointers at a level, sorted by (distance,
// ID).
func (t *Table) Backs(level int) []Entry {
	out := slices.Clone(t.backs[t.boff[level]:t.boff[level+1]])
	sortEntries(out)
	return out
}

// AppendBacks appends the backpointers of levels [lo, hi) to dst — level
// ascending, ID ascending within a level, the deterministic order the
// maintenance and search paths use — and returns the extended slice. It is
// one contiguous copy, with no allocation beyond dst growth.
func (t *Table) AppendBacks(dst []Entry, lo, hi int) []Entry {
	return append(dst, t.backs[t.boff[lo]:t.boff[hi]]...)
}

// AllBacks returns every backpointer, indexed by level, each level sorted by
// (distance, ID). Levels without backpointers are nil.
func (t *Table) AllBacks() [][]Entry {
	out := make([][]Entry, t.spec.Digits)
	for l := range out {
		if t.BackCount(l) > 0 {
			out[l] = t.Backs(l)
		}
	}
	return out
}
