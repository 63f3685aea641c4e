package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// tailLadder lists the tail percentiles Summarize tries, highest first,
// in basis points (9900 = p99).
var tailLadder = []int{9990, 9900, 9500, 9000, 7500}

// Summary is a latency sample reduced to its median and the highest tail
// percentile the sample supports.
type Summary struct {
	N       int
	P50     float64
	TailBP  int // tail percentile in basis points; 0 when none is supported
	TailVal float64
}

// TailName formats the tail percentile as it appears in metric names.
func (s Summary) TailName() string {
	if s.TailBP%100 == 0 {
		return fmt.Sprintf("p%d", s.TailBP/100)
	}
	return fmt.Sprintf("p%d.%d", s.TailBP/100, s.TailBP%100/10)
}

// Tail formats the tail percentile and its value for a report line, or
// says that the sample supports none.
func (s Summary) Tail(unit string) string {
	if s.TailBP == 0 {
		return "no tail percentile supported"
	}
	return fmt.Sprintf("%s %.4f %s", s.TailName(), s.TailVal, unit)
}

// supports reports whether n samples leave at least minBeyond samples
// beyond the percentile bp (in basis points). The arithmetic is integral
// so that, say, exactly 1000 samples support p99 and 999 do not.
func supports(n, bp int) bool { return n*(10000-bp) >= minBeyond*10000 }

// rank is the nearest-rank index of percentile bp in n sorted samples.
func rank(n, bp int) int {
	r := (n*bp + 9999) / 10000 // ceil(n*bp/10000)
	if r < 1 {
		r = 1
	}
	return r - 1
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Summarize reports the median of xs and the highest percentile of
// tailLadder that has at least minBeyond samples beyond it.
func Summarize(xs []float64) Summary {
	out := Summary{N: len(xs)}
	if len(xs) == 0 {
		return out
	}
	s := sorted(xs)
	out.P50 = s[rank(len(s), 5000)]
	for _, bp := range tailLadder {
		if supports(len(s), bp) {
			out.TailBP, out.TailVal = bp, s[rank(len(s), bp)]
			break
		}
	}
	return out
}

// Quartiles returns the three cut points that divide xs into quarters,
// computed as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method. It needs at least two samples.
func Quartiles(xs []float64) ([3]float64, error) {
	var q [3]float64
	ld := len(xs)
	if ld < 2 {
		return q, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	d := sorted(xs)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q, nil
}

// Median is the middle of xs (the mean of the middle two for even n).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
