// Package memory implements the reproduction's host-memory substrate: a
// refcounted frame table, virtual address spaces with the paper's two-level
// overlay EPT (a shared read-only Base-EPT under a private copy-on-write
// Private-EPT, §3.1), demand paging, fork-style CoW cloning for sfork, and
// RSS/PSS accounting for the Figure 14 memory study.
//
// Frames do not carry real 4 KiB buffers; each frame stores a 64-bit
// content token. That keeps thousand-instance scalability experiments
// cheap while still letting tests verify isolation (a child's write never
// changes the content another sandbox observes).
//
// The frame table is a dense slice indexed by FrameID with a last-in
// first-out free list, so the IDs handed out replay identically whenever
// frames are freed in the same order. Every walk that frees frames goes
// in ascending page order for that reason.
//
// A Base-EPT that sfork shares is a segment: an immutable page table
// that every sharer maps by pointer (segment.go). Cloning a space costs
// one segment reference per layer plus the VMA copy; the parent's
// private pages are folded into a new segment only when it has any,
// which for a template means once, at its first fork. A write into a
// shared page lands in the writer's sparse private overlay and records a
// per-page shadow on the segment, and Release walks only the overlay and
// the shadowed pages.
//
// Accounting is exactly that of one reference per mapping space, as if
// every clone copied the whole Base-EPT. The rule that gives this: a
// segment holds one frame-table reference to a page while some sharer
// still maps the page through it, and Refs adds the sharers that do
// (sharers minus shadows) in place of that one reference. Live, Refs,
// RSS, PSS, MappedPages and fault Stats therefore equal those of the
// copying design in every interleaving of clone, write and release. The
// one difference is a fix: the copying design leaked a frame when it
// cloned a space whose private page hid a Base-EPT entry (Populate over
// faulted pages, InstallBase under a private page); the fold drops that
// entry.
package memory

import "fmt"

// PageSize is the simulated page size in bytes.
const PageSize = 4096

// FrameID names a host physical frame. Zero is never a valid frame.
type FrameID uint64

// segRef names the page of a segment that maps a frame.
type segRef struct {
	seg  *segment
	page uint64
}

type frame struct {
	// refs counts the references held directly: private and base
	// entries, backings, and one for each segment still mapping the
	// frame. Zero marks a free slot.
	refs    int
	content uint64
	// home is the segment page mapping the frame, if any; further ones
	// (a frame folded into two segments) are in FrameTable.more.
	home segRef
}

// FrameTable models host physical memory: a set of refcounted frames.
// One FrameTable is shared by every sandbox on a simulated machine, which
// is what makes cross-sandbox page sharing (and PSS) observable.
type FrameTable struct {
	frames []frame   // indexed by FrameID; frames[0] is never used
	free   []FrameID // freed IDs, reused last-in first-out
	more   map[FrameID][]segRef
}

// NewFrameTable returns an empty frame table.
func NewFrameTable() *FrameTable {
	return &FrameTable{frames: make([]frame, 1)}
}

// Allocate creates a new frame with the given content token and one
// reference.
func (ft *FrameTable) Allocate(content uint64) FrameID {
	if n := len(ft.free); n > 0 {
		id := ft.free[n-1]
		ft.free = ft.free[:n-1]
		ft.frames[id] = frame{refs: 1, content: content}
		return id
	}
	ft.frames = append(ft.frames, frame{refs: 1, content: content})
	return FrameID(len(ft.frames) - 1)
}

// get returns the frame's slot; the pointer is valid until the next
// Allocate.
func (ft *FrameTable) get(id FrameID) *frame {
	if id == 0 || id >= FrameID(len(ft.frames)) || ft.frames[id].refs == 0 {
		panic(fmt.Sprintf("memory: unknown frame %d", id))
	}
	return &ft.frames[id]
}

// Ref adds a reference to an existing frame.
func (ft *FrameTable) Ref(id FrameID) { ft.get(id).refs++ }

// Unref drops a reference, freeing the frame at zero.
func (ft *FrameTable) Unref(id FrameID) {
	f := ft.get(id)
	f.refs--
	if f.refs == 0 {
		*f = frame{}
		ft.free = append(ft.free, id)
	}
}

// Refs reports the reference count of a frame: one per space mapping it,
// whether directly or through a shared segment, plus any other holder.
func (ft *FrameTable) Refs(id FrameID) int {
	f := ft.get(id)
	n := f.refs
	if f.home.seg != nil {
		n += f.home.seg.mappers(f.home.page) - 1
		for _, r := range ft.more[id] {
			n += r.seg.mappers(r.page) - 1
		}
	}
	return n
}

// Content returns the frame's content token.
func (ft *FrameTable) Content(id FrameID) uint64 { return ft.get(id).content }

// SetContent overwrites the frame's content token. Callers must hold the
// only writable mapping (AddressSpace guarantees this via CoW).
func (ft *FrameTable) SetContent(id FrameID, c uint64) { ft.get(id).content = c }

// Live returns the number of allocated frames (host memory in use, in
// pages).
func (ft *FrameTable) Live() int { return len(ft.frames) - 1 - len(ft.free) }

// join records that page p of segment s maps the frame. The caller's
// reference becomes the segment's.
func (ft *FrameTable) join(id FrameID, s *segment, p uint64) {
	f := ft.get(id)
	if f.home.seg == nil {
		f.home = segRef{s, p}
		return
	}
	if ft.more == nil {
		ft.more = make(map[FrameID][]segRef)
	}
	ft.more[id] = append(ft.more[id], segRef{s, p})
}

// leave undoes join and drops the segment's reference.
func (ft *FrameTable) leave(id FrameID, s *segment, p uint64) {
	f := ft.get(id)
	r := segRef{s, p}
	more := ft.more[id]
	if f.home == r {
		f.home = segRef{}
		if n := len(more); n > 0 {
			f.home, more = more[n-1], more[:n-1]
		}
	} else {
		for i := range more {
			if more[i] == r {
				more = append(more[:i], more[i+1:]...)
				break
			}
		}
	}
	if len(more) == 0 {
		delete(ft.more, id)
	} else {
		ft.more[id] = more
	}
	ft.Unref(id)
}
