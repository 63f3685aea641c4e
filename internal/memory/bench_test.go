package memory

import "testing"

// SPECjbb scale (workload registry, java-specjbb): a 51,200-page (200 MB)
// heap and an 8,000-page task image, with a 5,000-page execution
// working set of which every fourth page is written.
const (
	jbbTaskStart = 0x1000
	jbbTaskPages = 8000
	jbbHeapStart = 0x100000
	jbbHeapPages = 51200
	jbbExecPages = 5000
)

// jbbTemplate returns an initialized SPECjbb-sized template space that
// has already forked once, as a template has in steady state.
func jbbTemplate(b *testing.B) *AddressSpace {
	b.Helper()
	as := NewAddressSpace(newEnv(), NewFrameTable())
	for _, v := range []VMA{
		{Name: "task-image", Start: jbbTaskStart, End: jbbTaskStart + jbbTaskPages},
		{Name: "heap", Start: jbbHeapStart, End: jbbHeapStart + jbbHeapPages},
	} {
		if err := as.Map(v); err != nil {
			b.Fatal(err)
		}
		if err := as.PopulateRange(v.Start, v.End, func(p uint64) uint64 { return p }, nil); err != nil {
			b.Fatal(err)
		}
	}
	as.CloneCoW().Release()
	return as
}

// dirty writes every fourth page of the execution working set, as
// sandbox.Execute does; each write is a CoW fault.
func dirty(b *testing.B, as *AddressSpace) {
	for i := uint64(0); i < jbbExecPages; i += 4 {
		if err := as.Write(jbbHeapStart+i, i|1); err != nil {
			b.Fatal(err)
		}
	}
}

// batch bounds how many clones a benchmark holds at once: stopping the
// timer per iteration would cost more than a clone does.
const batch = 16

// BenchmarkCloneCoW measures one sfork address-space clone of the
// template.
func BenchmarkCloneCoW(b *testing.B) {
	tmpl := jbbTemplate(b)
	clones := make([]*AddressSpace, 0, batch)
	release := func() {
		for _, c := range clones {
			c.Release()
		}
		clones = clones[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(clones) == batch {
			b.StopTimer()
			release()
			b.StartTimer()
		}
		clones = append(clones, tmpl.CloneCoW())
	}
	b.StopTimer()
	release()
}

// BenchmarkReleaseClone measures releasing a clone that has dirtied its
// share of the execution working set.
func BenchmarkReleaseClone(b *testing.B) {
	tmpl := jbbTemplate(b)
	clones := make([]*AddressSpace, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(clones) == 0 {
			b.StopTimer()
			for n := min(batch, b.N-i); n > 0; n-- {
				c := tmpl.CloneCoW()
				dirty(b, c)
				clones = append(clones, c)
			}
			b.StartTimer()
		}
		clones[len(clones)-1].Release()
		clones = clones[:len(clones)-1]
	}
}

// BenchmarkCoWFault measures one write fault on a page the clone shares
// with the template.
func BenchmarkCoWFault(b *testing.B) {
	tmpl := jbbTemplate(b)
	c := tmpl.CloneCoW()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := uint64(i % jbbHeapPages)
		if p == 0 && i > 0 {
			b.StopTimer()
			c.Release()
			c = tmpl.CloneCoW()
			b.StartTimer()
		}
		if err := c.Write(jbbHeapStart+p, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
