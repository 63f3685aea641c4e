package main

import "testing"

// TestYardstickSampleDoesNotAllocate checks that a sample reuses its map,
// so that interleaving samples with a closed loop leaves the loop's
// allocs_per_op and bytes_per_op as they were.
func TestYardstickSampleDoesNotAllocate(t *testing.T) {
	y := newYardstick()
	if len(y.src) != yardEntries {
		t.Fatalf("yardstick holds %d entries, want %d", len(y.src), yardEntries)
	}
	if n := testing.AllocsPerRun(3, func() { y.sample() }); n > 0 {
		t.Fatalf("a sample allocates %v times", n)
	}
	if len(y.dst) != yardEntries {
		t.Fatalf("a sample copies %d entries, want %d", len(y.dst), yardEntries)
	}
}

func TestYardstickScale(t *testing.T) {
	y := &yardstick{samples: []float64{2 * yardRefMS, yardRefMS / 2, 4 * yardRefMS}}
	if got := y.scale(); got != 0.5 {
		t.Fatalf("scale with a median sample of twice the reference: %v, want 0.5", got)
	}
}
