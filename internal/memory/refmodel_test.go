package memory

// This file keeps the frame table and address space exactly as they were
// before Base-EPT segments: every clone copied the parent's whole base
// map and took a frame reference per page. It is the reference model the
// differential test and FuzzAddressSpaceOps check the segment
// implementation against. Only the names differ from the original.

import (
	"fmt"
	"sort"

	"catalyzer/internal/simenv"
)

type refFrame struct {
	refs    int
	content uint64
}

// refFrameTable models host physical memory: a set of refcounted frames.
// One refFrameTable is shared by every sandbox on a simulated machine, which
// is what makes cross-sandbox page sharing (and PSS) observable.
type refFrameTable struct {
	next   FrameID
	frames map[FrameID]*refFrame
}

// newRefFrameTable returns an empty frame table.
func newRefFrameTable() *refFrameTable {
	return &refFrameTable{frames: make(map[FrameID]*refFrame)}
}

// Allocate creates a new frame with the given content token and one
// reference.
func (ft *refFrameTable) Allocate(content uint64) FrameID {
	ft.next++
	ft.frames[ft.next] = &refFrame{refs: 1, content: content}
	return ft.next
}

func (ft *refFrameTable) get(id FrameID) *refFrame {
	f, ok := ft.frames[id]
	if !ok {
		panic(fmt.Sprintf("memory: unknown frame %d", id))
	}
	return f
}

// Ref adds a reference to an existing frame.
func (ft *refFrameTable) Ref(id FrameID) { ft.get(id).refs++ }

// Unref drops a reference, freeing the frame at zero.
func (ft *refFrameTable) Unref(id FrameID) {
	f := ft.get(id)
	f.refs--
	if f.refs < 0 {
		panic(fmt.Sprintf("memory: frame %d refcount underflow", id))
	}
	if f.refs == 0 {
		delete(ft.frames, id)
	}
}

// Refs reports the reference count of a frame.
func (ft *refFrameTable) Refs(id FrameID) int { return ft.get(id).refs }

// Content returns the frame's content token.
func (ft *refFrameTable) Content(id FrameID) uint64 { return ft.get(id).content }

// SetContent overwrites the frame's content token. Callers must hold the
// only writable mapping (refAddressSpace guarantees this via CoW).
func (ft *refFrameTable) SetContent(id FrameID, c uint64) { ft.get(id).content = c }

// Live returns the number of allocated frames (host memory in use, in
// pages).
func (ft *refFrameTable) Live() int { return len(ft.frames) }

// refAddressSpace is a sandbox's guest-physical address space with the
// paper's layered EPT design: a read-only Base-EPT whose entries are
// shared (func-image pages, pages inherited from a warm-boot base mapping
// or an sfork parent) and a Private-EPT established by copy-on-write.
// Hardware EPT construction "merges entries from the Private-EPT with the
// Base-EPT" (§3.1); Translate implements exactly that merge.
type refAddressSpace struct {
	env     *simenv.Env
	ft      *refFrameTable
	base    map[uint64]FrameID // read-only, shared
	private map[uint64]FrameID // read-write, exclusive
	vmas    []VMA
	stats   Stats
	dead    bool
}

// newRefAddressSpace returns an empty address space over the machine's frame
// table.
func newRefAddressSpace(env *simenv.Env, ft *refFrameTable) *refAddressSpace {
	return &refAddressSpace{
		env:     env,
		ft:      ft,
		base:    make(map[uint64]FrameID),
		private: make(map[uint64]FrameID),
	}
}

// Map installs a VMA. Nothing is populated: pages appear in the EPTs only
// when faulted (file-backed) or written (anonymous). The caller charges
// the map-file / share-mapping cost; Map itself is bookkeeping.
func (as *refAddressSpace) Map(v VMA) error {
	if v.End <= v.Start {
		return fmt.Errorf("memory: VMA %q has non-positive size [%d,%d)", v.Name, v.Start, v.End)
	}
	for _, old := range as.vmas {
		if v.Start < old.End && old.Start < v.End {
			return fmt.Errorf("memory: VMA %q overlaps %q", v.Name, old.Name)
		}
	}
	as.vmas = append(as.vmas, v)
	sort.Slice(as.vmas, func(i, j int) bool { return as.vmas[i].Start < as.vmas[j].Start })
	return nil
}

// VMAs returns the mapped areas in address order.
func (as *refAddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

func (as *refAddressSpace) vmaFor(page uint64) (VMA, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > page })
	if i < len(as.vmas) && as.vmas[i].Start <= page {
		return as.vmas[i], true
	}
	return VMA{}, false
}

// Translate performs the hardware EPT merge: the Private-EPT entry wins
// if valid, otherwise the Base-EPT entry is used. The boolean reports
// whether the page is currently mapped at all.
func (as *refAddressSpace) Translate(page uint64) (FrameID, bool) {
	if f, ok := as.private[page]; ok {
		return f, true
	}
	f, ok := as.base[page]
	return f, ok
}

// Read accesses a page for reading, serving a demand fault if the page is
// not yet mapped, and returns the content observed.
func (as *refAddressSpace) Read(page uint64) (uint64, error) {
	f, ok := as.Translate(page)
	if !ok {
		var err error
		f, err = as.demandFault(page)
		if err != nil {
			return 0, err
		}
	}
	return as.ft.Content(f), nil
}

// Write accesses a page for writing, performing copy-on-write if the
// effective mapping is a shared Base-EPT entry.
func (as *refAddressSpace) Write(page uint64, content uint64) error {
	if f, ok := as.private[page]; ok {
		as.ft.SetContent(f, content)
		return nil
	}
	if shared, ok := as.base[page]; ok {
		// EPT write violation on the Base-EPT: copy the page into the
		// Private-EPT (§3.1) and drop this space's shared reference.
		as.env.Charge(as.env.Cost.CoWFault)
		as.stats.CoWFaults++
		priv := as.ft.Allocate(as.ft.Content(shared))
		as.ft.SetContent(priv, content)
		as.private[page] = priv
		delete(as.base, page)
		as.ft.Unref(shared)
		return nil
	}
	// Unmapped anonymous page: first-touch allocation.
	if _, ok := as.vmaFor(page); !ok {
		return fmt.Errorf("memory: write fault outside any VMA at page %d", page)
	}
	as.env.Charge(as.env.Cost.EPTFault)
	as.stats.DemandFaults++
	f := as.ft.Allocate(0)
	as.ft.SetContent(f, content)
	as.private[page] = f
	return nil
}

func (as *refAddressSpace) demandFault(page uint64) (FrameID, error) {
	v, ok := as.vmaFor(page)
	if !ok {
		return 0, fmt.Errorf("memory: fault outside any VMA at page %d", page)
	}
	as.env.Charge(as.env.Cost.EPTFault)
	as.stats.DemandFaults++
	if v.Backing != nil {
		if f, ok := v.Backing.Frame(page - v.Start); ok {
			as.ft.Ref(f)
			as.base[page] = f
			return f, nil
		}
	}
	// Anonymous (or image hole): zero frame, private to this space.
	f := as.ft.Allocate(0)
	as.private[page] = f
	return f, nil
}

// Populate eagerly installs a private copy of every backed page of the
// VMA, charging per-page cost supplied by the caller via fn. It models
// the baseline restore path, which decompresses and loads all application
// memory on the critical path (§2.2).
func (as *refAddressSpace) Populate(v VMA, perPage func()) error {
	if v.Backing == nil {
		return fmt.Errorf("memory: Populate on anonymous VMA %q", v.Name)
	}
	for p := v.Start; p < v.End; p++ {
		f, ok := v.Backing.Frame(p - v.Start)
		if !ok {
			continue
		}
		perPage()
		priv := as.ft.Allocate(as.ft.Content(f))
		if old, exists := as.private[p]; exists {
			as.ft.Unref(old)
		}
		as.private[p] = priv
	}
	return nil
}

// PopulateRange eagerly installs private frames for [start, end) with
// caller-defined contents, invoking perPage for cost accounting. It
// models bulk population that does not go through the fault path: loading
// a task image from the rootfs, or an application dirtying its heap
// during initialization.
func (as *refAddressSpace) PopulateRange(start, end uint64, content func(page uint64) uint64, perPage func()) error {
	for p := start; p < end; p++ {
		if _, ok := as.vmaFor(p); !ok {
			return fmt.Errorf("memory: PopulateRange outside any VMA at page %d", p)
		}
		if perPage != nil {
			perPage()
		}
		var c uint64
		if content != nil {
			c = content(p)
		}
		if f, ok := as.private[p]; ok {
			as.ft.SetContent(f, c)
			continue
		}
		if shared, ok := as.base[p]; ok {
			delete(as.base, p)
			as.ft.Unref(shared)
		}
		f := as.ft.Allocate(c)
		as.private[p] = f
	}
	return nil
}

// InstallBase maps a shared frame directly into the Base-EPT, used when a
// warm boot inherits an already-constructed base mapping. The frame gains
// a reference.
func (as *refAddressSpace) InstallBase(page uint64, f FrameID) {
	if old, ok := as.base[page]; ok {
		as.ft.Unref(old)
	}
	as.ft.Ref(f)
	as.base[page] = f
}

// CloneCoW produces a child address space for sfork: the child sees every
// page the parent sees, shared read-only; either side's next write copies.
// The parent's private pages are demoted to shared Base-EPT entries so the
// parent CoWs too, exactly like fork's write-protection of both sides.
// Shared (MAP_SHARED) VMAs are only clonable because Catalyzer adds a CoW
// flag for shared memory mappings (§4); the caller enforces policy.
func (as *refAddressSpace) CloneCoW() *refAddressSpace {
	child := newRefAddressSpace(as.env, as.ft)
	child.vmas = make([]VMA, len(as.vmas))
	copy(child.vmas, as.vmas)

	// Demote parent's private pages to shared.
	for page, f := range as.private {
		as.base[page] = f
		delete(as.private, page)
	}
	for page, f := range as.base {
		as.ft.Ref(f)
		child.base[page] = f
	}
	return child
}

// Rebase shifts every VMA and mapping by delta pages — the address-space
// re-randomization that restores ASLR for sforked children (§6.8: layout
// sharing across instances "can be mitigated by ... re-randomizing the
// layout of address space during sfork"). Frame references are unchanged;
// only guest virtual addresses move.
func (as *refAddressSpace) Rebase(delta uint64) {
	if delta == 0 {
		return
	}
	base := make(map[uint64]FrameID, len(as.base))
	for p, f := range as.base {
		base[p+delta] = f
	}
	as.base = base
	private := make(map[uint64]FrameID, len(as.private))
	for p, f := range as.private {
		private[p+delta] = f
	}
	as.private = private
	for i := range as.vmas {
		as.vmas[i].Start += delta
		as.vmas[i].End += delta
	}
}

// Release unmaps everything, dropping frame references. The space must
// not be used afterwards.
func (as *refAddressSpace) Release() {
	if as.dead {
		return
	}
	as.dead = true
	for page, f := range as.base {
		as.ft.Unref(f)
		delete(as.base, page)
	}
	for page, f := range as.private {
		as.ft.Unref(f)
		delete(as.private, page)
	}
	as.vmas = nil
}

// Stats returns the fault counters.
func (as *refAddressSpace) Stats() Stats { return as.stats }

// MappedPages returns the number of pages currently present in either EPT.
func (as *refAddressSpace) MappedPages() int {
	n := len(as.private)
	for p := range as.base {
		if _, ok := as.private[p]; !ok {
			n++
		}
	}
	return n
}

// RSS returns the resident set size in bytes: every page mapped by this
// space counts fully.
func (as *refAddressSpace) RSS() uint64 {
	return uint64(as.MappedPages()) * PageSize
}

// PSS returns the proportional set size in bytes: each mapped page counts
// divided by the number of spaces (or other holders) referencing its
// frame, matching the Figure 14 methodology.
func (as *refAddressSpace) PSS() float64 {
	var pss float64
	for page, f := range as.private {
		_ = page
		pss += float64(PageSize) / float64(as.ft.Refs(f))
	}
	for page, f := range as.base {
		if _, ok := as.private[page]; ok {
			continue
		}
		pss += float64(PageSize) / float64(as.ft.Refs(f))
	}
	return pss
}
