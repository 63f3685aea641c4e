package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helpers must sort
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, bp int
		want  bool
	}{
		{999, 9900, false}, {1000, 9900, true},
		{199, 9500, false}, {200, 9500, true},
		{9999, 9990, false}, {10000, 9990, true},
	} {
		if got := supports(tc.n, tc.bp); got != tc.want {
			t.Errorf("supports(%d samples, p%.1f) = %v, want %v", tc.n, float64(tc.bp)/100, got, tc.want)
		}
	}
	if s := Summarize(seq(999)); s.TailName() != "p95" {
		t.Errorf("999 samples report %s, want p95: p99 has fewer than 10 samples beyond it", s.TailName())
	}
}

func TestSummarizePicksHighestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		tail string
		val  float64
	}{
		{30, "", 0},
		{40, "p75", 30},
		{100, "p90", 90},
		{250, "p95", 238},
		{1000, "p99", 990},
		{20000, "p99.9", 19980},
	} {
		s := Summarize(seq(tc.n))
		if s.N != tc.n {
			t.Errorf("n=%d: N = %d", tc.n, s.N)
		}
		if want := math.Ceil(float64(tc.n) / 2); s.P50 != want {
			t.Errorf("n=%d: P50 = %v, want %v", tc.n, s.P50, want)
		}
		if tc.tail == "" {
			if s.TailBP != 0 {
				t.Errorf("n=%d: tail %s reported, want none", tc.n, s.TailName())
			}
			continue
		}
		if s.TailName() != tc.tail || s.TailVal != tc.val {
			t.Errorf("n=%d: tail %s = %v, want %s = %v", tc.n, s.TailName(), s.TailVal, tc.tail, tc.val)
		}
	}
}

// TestQuartilesMatchPython checks against values printed by Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
	} {
		got, err := Quartiles(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	if _, err := Quartiles([]float64{1}); err == nil {
		t.Error("Quartiles of one value: want an error")
	}
}

func TestSpread(t *testing.T) {
	got, err := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Spread = %v, want %v", got, want)
	}
}
