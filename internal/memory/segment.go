package memory

import "slices"

// pageTable maps pages to frames. Like a hardware page table it has two
// levels: a map from leaf number to a leaf of leafPages entries, so a
// lookup is one map probe and a dense run of pages costs about one word
// per page. The zero value is an empty table.
type pageTable struct {
	leaves map[uint64]*leaf
	n      int
}

const (
	leafBits  = 6
	leafPages = 1 << leafBits
)

type leaf [leafPages]FrameID

func (t *pageTable) len() int { return t.n }

func (t *pageTable) get(p uint64) (FrameID, bool) {
	l := t.leaves[p>>leafBits]
	if l == nil {
		return 0, false
	}
	f := l[p&(leafPages-1)]
	return f, f != 0
}

// set maps p to f and returns the frame it replaced, or zero.
func (t *pageTable) set(p uint64, f FrameID) FrameID {
	if t.leaves == nil {
		t.leaves = make(map[uint64]*leaf)
	}
	l := t.leaves[p>>leafBits]
	if l == nil {
		l = new(leaf)
		t.leaves[p>>leafBits] = l
	}
	old := l[p&(leafPages-1)]
	if old == 0 {
		t.n++
	}
	l[p&(leafPages-1)] = f
	return old
}

func (t *pageTable) del(p uint64) {
	if l := t.leaves[p>>leafBits]; l != nil && l[p&(leafPages-1)] != 0 {
		l[p&(leafPages-1)] = 0
		t.n--
	}
}

// each calls fn for every mapped page in ascending page order, so walks
// that free frames replay identically.
func (t *pageTable) each(fn func(p uint64, f FrameID)) {
	keys := make([]uint64, 0, len(t.leaves))
	for k := range t.leaves {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for i, f := range t.leaves[k] {
			if f != 0 {
				fn(k<<leafBits|uint64(i), f)
			}
		}
	}
}

// segment is a shared Base-EPT: a page table that several address
// spaces map at once, in the page coordinates of the space whose private
// pages were folded into it. Its pages never change after the fold.
// Each sharer keeps its own set of shadowed pages (layer.shadow): pages
// it no longer maps through the segment because it wrote them, replaced
// them, or inherited the shadow from its parent. The segment keeps the
// per-page totals, so a page is still mapped by sharers-shadow[p] spaces
// and the segment holds its frame reference exactly while that is
// positive.
type segment struct {
	pages   pageTable
	sharers int
	shadow  map[uint64]int
}

// mappers returns how many sharers map page p through the segment.
func (s *segment) mappers(p uint64) int { return s.sharers - s.shadow[p] }

// hide records that one more sharer stopped mapping page p, whose frame
// is f, and drops the segment's reference when that was the last.
func (s *segment) hide(ft *FrameTable, p uint64, f FrameID) {
	if s.shadow == nil {
		s.shadow = make(map[uint64]int)
	}
	s.shadow[p]++
	if s.mappers(p) == 0 {
		ft.leave(f, s, p)
	}
}

// share adds a sharer that inherits the given shadow set.
func (s *segment) share(shadow map[uint64]struct{}) {
	s.sharers++
	for p := range shadow {
		s.shadow[p]++
	}
}

// unshare removes a sharer whose shadow set is given, dropping the frame
// references of the pages it was the last to map. That costs the
// segment's shadowed pages, or every page when the last sharer leaves.
func (s *segment) unshare(ft *FrameTable, shadow map[uint64]struct{}) {
	for p := range shadow {
		if s.shadow[p]--; s.shadow[p] == 0 {
			delete(s.shadow, p)
		}
	}
	s.sharers--
	if s.sharers == 0 {
		s.pages.each(func(p uint64, f FrameID) {
			if _, gone := shadow[p]; !gone {
				ft.leave(f, s, p)
			}
		})
		return
	}
	// A page every remaining sharer shadows was mapped by the leaver
	// alone, unless the leaver shadowed it too (then it is long gone).
	var orphans []uint64
	for p, n := range s.shadow {
		if _, gone := shadow[p]; n == s.sharers && !gone {
			orphans = append(orphans, p)
		}
	}
	slices.Sort(orphans)
	for _, p := range orphans {
		f, _ := s.pages.get(p)
		ft.leave(f, s, p)
	}
}

// layer is one address space's view of a shared segment.
type layer struct {
	seg    *segment
	shadow map[uint64]struct{} // pages this space no longer maps through seg
}
