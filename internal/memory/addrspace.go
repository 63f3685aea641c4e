package memory

import (
	"fmt"
	"maps"
	"sort"

	"catalyzer/internal/simenv"
)

// Backing supplies shared frames for file-backed mappings — in this
// reproduction, the memory section of a mapped func-image. Frame must
// return the same FrameID for the same page on every call (the image is a
// single host mapping shared by all sandboxes).
type Backing interface {
	// Frame returns the shared frame backing the given page offset
	// within the VMA, or false if the page is absent (a hole).
	Frame(page uint64) (FrameID, bool)
}

// VMA is a virtual memory area: a [Start, End) page-number range.
type VMA struct {
	Name    string
	Start   uint64 // first page number
	End     uint64 // one past the last page number
	Backing Backing
	// Shared marks a MAP_SHARED region. Plain fork would let a child
	// inherit it writably (violating sandbox isolation, §4 Challenge-2);
	// sfork requires the CoW flag Catalyzer adds to the host kernel.
	Shared bool
}

// Pages returns the number of pages the VMA spans.
func (v VMA) Pages() uint64 { return v.End - v.Start }

// Stats counts the faults an address space has served.
type Stats struct {
	DemandFaults int // EPT violations resolved by mapping an existing/zero frame
	CoWFaults    int // write violations resolved by copying a page
}

// AddressSpace is a sandbox's guest-physical address space with the
// paper's layered EPT design: a read-only Base-EPT whose entries are
// shared (func-image pages, pages inherited from a warm-boot base mapping
// or an sfork parent) and a Private-EPT established by copy-on-write.
// Hardware EPT construction "merges entries from the Private-EPT with the
// Base-EPT" (§3.1); Translate implements exactly that merge.
//
// The Base-EPT has two parts: the entries this space holds its own
// reference on (base: demand-faulted backing pages and InstallBase), and
// the segments inherited through sfork (layers, newest first). At most
// one of them maps a given page; a segment page the space has shadowed
// does not count. Every table is indexed by table page, which is the
// guest page minus delta, so Rebase moves the whole space in O(VMAs)
// while it shares segments with spaces at other offsets.
type AddressSpace struct {
	env     *simenv.Env
	ft      *FrameTable
	delta   uint64    // guest page = table page + delta
	private pageTable // read-write, exclusive
	base    pageTable // read-only, this space's own references
	layers  []layer   // read-only, shared
	vmas    []VMA
	stats   Stats
	dead    bool
}

// NewAddressSpace returns an empty address space over the machine's frame
// table.
func NewAddressSpace(env *simenv.Env, ft *FrameTable) *AddressSpace {
	return &AddressSpace{env: env, ft: ft}
}

// Map installs a VMA. Nothing is populated: pages appear in the EPTs only
// when faulted (file-backed) or written (anonymous). The caller charges
// the map-file / share-mapping cost; Map itself is bookkeeping.
func (as *AddressSpace) Map(v VMA) error {
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
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

func (as *AddressSpace) vmaFor(page uint64) (VMA, bool) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > page })
	if i < len(as.vmas) && as.vmas[i].Start <= page {
		return as.vmas[i], true
	}
	return VMA{}, false
}

// baseEntry returns the Base-EPT entry for table page p and where it
// lives: layer index li, or -1 for the space's own base table.
func (as *AddressSpace) baseEntry(p uint64) (f FrameID, li int, ok bool) {
	if f, ok := as.base.get(p); ok {
		return f, -1, true
	}
	for i, l := range as.layers {
		if f, ok := l.seg.pages.get(p); ok {
			if _, gone := l.shadow[p]; !gone {
				return f, i, true
			}
		}
	}
	return 0, 0, false
}

// dropBase removes the Base-EPT entry baseEntry found, dropping this
// space's reference to the frame.
func (as *AddressSpace) dropBase(p uint64, f FrameID, li int) {
	if li < 0 {
		as.base.del(p)
		as.ft.Unref(f)
		return
	}
	l := &as.layers[li]
	if l.shadow == nil {
		l.shadow = make(map[uint64]struct{})
	}
	l.shadow[p] = struct{}{}
	l.seg.hide(as.ft, p, f)
}

// Translate performs the hardware EPT merge: the Private-EPT entry wins
// if valid, otherwise the Base-EPT entry is used. The boolean reports
// whether the page is currently mapped at all.
func (as *AddressSpace) Translate(page uint64) (FrameID, bool) {
	p := page - as.delta
	if f, ok := as.private.get(p); ok {
		return f, true
	}
	f, _, ok := as.baseEntry(p)
	return f, ok
}

// Read accesses a page for reading, serving a demand fault if the page is
// not yet mapped, and returns the content observed.
func (as *AddressSpace) Read(page uint64) (uint64, error) {
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
func (as *AddressSpace) Write(page uint64, content uint64) error {
	p := page - as.delta
	if f, ok := as.private.get(p); ok {
		as.ft.SetContent(f, content)
		return nil
	}
	if shared, li, ok := as.baseEntry(p); ok {
		// EPT write violation on the Base-EPT: copy the page into the
		// Private-EPT (§3.1) and drop this space's shared reference.
		as.env.Charge(as.env.Cost.CoWFault)
		as.stats.CoWFaults++
		priv := as.ft.Allocate(as.ft.Content(shared))
		as.ft.SetContent(priv, content)
		as.private.set(p, priv)
		as.dropBase(p, shared, li)
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
	as.private.set(p, f)
	return nil
}

func (as *AddressSpace) demandFault(page uint64) (FrameID, error) {
	v, ok := as.vmaFor(page)
	if !ok {
		return 0, fmt.Errorf("memory: fault outside any VMA at page %d", page)
	}
	as.env.Charge(as.env.Cost.EPTFault)
	as.stats.DemandFaults++
	if v.Backing != nil {
		if f, ok := v.Backing.Frame(page - v.Start); ok {
			as.ft.Ref(f)
			as.base.set(page-as.delta, f)
			return f, nil
		}
	}
	// Anonymous (or image hole): zero frame, private to this space.
	f := as.ft.Allocate(0)
	as.private.set(page-as.delta, f)
	return f, nil
}

// Populate eagerly installs a private copy of every backed page of the
// VMA, charging per-page cost supplied by the caller via fn. It models
// the baseline restore path, which decompresses and loads all application
// memory on the critical path (§2.2).
func (as *AddressSpace) Populate(v VMA, perPage func()) error {
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
		if old := as.private.set(p-as.delta, priv); old != 0 {
			as.ft.Unref(old)
		}
	}
	return nil
}

// PopulateRange eagerly installs private frames for [start, end) with
// caller-defined contents, invoking perPage for cost accounting. It
// models bulk population that does not go through the fault path: loading
// a task image from the rootfs, or an application dirtying its heap
// during initialization.
func (as *AddressSpace) PopulateRange(start, end uint64, content func(page uint64) uint64, perPage func()) error {
	for page := start; page < end; page++ {
		if _, ok := as.vmaFor(page); !ok {
			return fmt.Errorf("memory: PopulateRange outside any VMA at page %d", page)
		}
		if perPage != nil {
			perPage()
		}
		var c uint64
		if content != nil {
			c = content(page)
		}
		p := page - as.delta
		if f, ok := as.private.get(p); ok {
			as.ft.SetContent(f, c)
			continue
		}
		if shared, li, ok := as.baseEntry(p); ok {
			as.dropBase(p, shared, li)
		}
		as.private.set(p, as.ft.Allocate(c))
	}
	return nil
}

// InstallBase maps a shared frame directly into the Base-EPT, used when a
// warm boot inherits an already-constructed base mapping. The frame gains
// a reference.
func (as *AddressSpace) InstallBase(page uint64, f FrameID) {
	p := page - as.delta
	if old, li, ok := as.baseEntry(p); ok {
		as.dropBase(p, old, li)
	}
	as.ft.Ref(f)
	as.base.set(p, f)
}

// CloneCoW produces a child address space for sfork: the child sees every
// page the parent sees, shared read-only; either side's next write copies.
// The parent's private pages are demoted to shared Base-EPT entries so the
// parent CoWs too, exactly like fork's write-protection of both sides.
// Shared (MAP_SHARED) VMAs are only clonable because Catalyzer adds a CoW
// flag for shared memory mappings (§4); the caller enforces policy.
//
// The demotion folds the parent's private and own base entries into a
// new segment, once; after that a clone costs a reference per segment
// and a copy of the parent's shadow sets, independent of memory size.
func (as *AddressSpace) CloneCoW() *AddressSpace {
	child := NewAddressSpace(as.env, as.ft)
	child.vmas = make([]VMA, len(as.vmas))
	copy(child.vmas, as.vmas)
	child.delta = as.delta

	if as.private.len()+as.base.len() > 0 {
		as.fold()
	}
	child.layers = make([]layer, len(as.layers))
	for i, l := range as.layers {
		l.seg.share(l.shadow)
		child.layers[i] = layer{seg: l.seg, shadow: maps.Clone(l.shadow)}
	}
	return child
}

// fold moves the space's private and own base entries into a new
// segment on top of its layers.
func (as *AddressSpace) fold() {
	// A private page can hide a Base-EPT entry (Populate over faulted
	// pages, InstallBase under a private page). The segment maps the
	// private frame there, so the hidden entry's reference goes now.
	if as.base.len() > 0 || len(as.layers) > 0 {
		as.private.each(func(p uint64, _ FrameID) {
			if f, li, ok := as.baseEntry(p); ok {
				as.dropBase(p, f, li)
			}
		})
	}
	s := &segment{pages: as.private, sharers: 1}
	as.base.each(func(p uint64, f FrameID) { s.pages.set(p, f) })
	s.pages.each(func(p uint64, f FrameID) { as.ft.join(f, s, p) })
	as.private, as.base = pageTable{}, pageTable{}
	as.layers = append([]layer{{seg: s}}, as.layers...)
}

// Rebase shifts every VMA and mapping by delta pages — the address-space
// re-randomization that restores ASLR for sforked children (§6.8: layout
// sharing across instances "can be mitigated by ... re-randomizing the
// layout of address space during sfork"). Frame references are unchanged;
// only guest virtual addresses move.
func (as *AddressSpace) Rebase(delta uint64) {
	if delta == 0 {
		return
	}
	as.delta += delta
	for i := range as.vmas {
		as.vmas[i].Start += delta
		as.vmas[i].End += delta
	}
}

// Release unmaps everything, dropping frame references. The space must
// not be used afterwards.
func (as *AddressSpace) Release() {
	if as.dead {
		return
	}
	as.dead = true
	as.base.each(func(_ uint64, f FrameID) { as.ft.Unref(f) })
	as.private.each(func(_ uint64, f FrameID) { as.ft.Unref(f) })
	for _, l := range as.layers {
		l.seg.unshare(as.ft, l.shadow)
	}
	as.private, as.base, as.layers = pageTable{}, pageTable{}, nil
	as.vmas = nil
}

// Stats returns the fault counters.
func (as *AddressSpace) Stats() Stats { return as.stats }

// MappedPages returns the number of pages currently present in either EPT.
func (as *AddressSpace) MappedPages() int {
	n := as.private.len() + as.base.len()
	for _, l := range as.layers {
		n += l.seg.pages.len() - len(l.shadow)
	}
	if as.base.len() > 0 || len(as.layers) > 0 {
		as.private.each(func(p uint64, _ FrameID) {
			if _, _, hidden := as.baseEntry(p); hidden {
				n--
			}
		})
	}
	return n
}

// RSS returns the resident set size in bytes: every page mapped by this
// space counts fully.
func (as *AddressSpace) RSS() uint64 {
	return uint64(as.MappedPages()) * PageSize
}

// PSS returns the proportional set size in bytes: each mapped page counts
// divided by the number of spaces (or other holders) referencing its
// frame, matching the Figure 14 methodology.
func (as *AddressSpace) PSS() float64 {
	var pss float64
	as.pageRefs(func(refs int) { pss += float64(PageSize) / float64(refs) })
	return pss
}

// pageRefs calls fn with the frame reference count of every mapped page,
// in a fixed order so PSS sums the same way on every run.
func (as *AddressSpace) pageRefs(fn func(refs int)) {
	as.private.each(func(_ uint64, f FrameID) { fn(as.ft.Refs(f)) })
	as.base.each(func(p uint64, f FrameID) {
		if _, hidden := as.private.get(p); !hidden {
			fn(as.ft.Refs(f))
		}
	})
	for _, l := range as.layers {
		l.seg.pages.each(func(p uint64, f FrameID) {
			if _, gone := l.shadow[p]; gone {
				return
			}
			if _, hidden := as.private.get(p); !hidden {
				fn(as.ft.Refs(f))
			}
		})
	}
}
