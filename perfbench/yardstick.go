package main

import (
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by a quarter or
// more over minutes: neighbours load the shared cache and the memory bus.
// Host times of the same program then differ between runs by more than
// any bound worth gating on. The yardstick is a fixed piece of the
// benchmark's own work, timed between the invocations of a closed loop.
// Its time moves with the host's speed and never with the program, so
// host times scaled by it compare across runs.
//
// One sample copies a map of yardEntries pseudo-random page numbers into
// a second, already grown map and counts a reference per entry: the map
// walk and scattered writes that memory.AddressSpace.CloneCoW does, on a
// working set larger than a core's private cache. The copy reuses its
// map, so a sample does not allocate.
const yardEntries = 1 << 17

// yardRefMS is the host speed scaled metrics are given at: a scaled time
// is a host time multiplied by yardRefMS over the run's median sample.
// It is about the median sample of both closed loops on the machine the
// benchmark was defined on (go1.24.0 linux/amd64, Intel Xeon, 2 vCPUs),
// so there scaled and measured values are alike.
const yardRefMS = 14.0

// yardEvery is how much measured time passes between two samples of a
// closed loop.
const yardEvery = 250 * time.Millisecond

// yardstick holds the yardstick's data and its samples.
type yardstick struct {
	src     map[uint64]uint32
	dst     map[uint64]uint32
	refs    []uint32
	samples []float64 // ms
}

func newYardstick() *yardstick {
	y := &yardstick{
		src:  make(map[uint64]uint32, yardEntries),
		dst:  make(map[uint64]uint32, yardEntries),
		refs: make([]uint32, yardEntries),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := uint32(0); len(y.src) < yardEntries; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y.src[x>>24] = i % yardEntries
	}
	y.sample() // the first copy grows dst; it is not a sample
	y.samples = y.samples[:0]
	return y
}

// sample times one copy and returns its duration.
func (y *yardstick) sample() time.Duration {
	start := time.Now()
	clear(y.dst)
	for page, f := range y.src {
		y.refs[f]++
		y.dst[page] = f
	}
	d := time.Since(start)
	y.samples = append(y.samples, float64(d)/1e6)
	return d
}

// scale is the factor that turns a host time of this run into the time
// at the reference speed: yardRefMS over the median sample.
func (y *yardstick) scale() float64 { return yardRefMS / Median(y.samples) }

// note records the yardstick's samples in rep.
func (y *yardstick) note(rep *Report) {
	q, err := Quartiles(y.samples)
	if err != nil {
		rep.Note("yardstick: %d samples", len(y.samples))
		return
	}
	rep.Note("yardstick: %d samples, quartiles %.4f %.4f %.4f ms, scale %.4f", len(y.samples), q[0], q[1], q[2], y.scale())
}
