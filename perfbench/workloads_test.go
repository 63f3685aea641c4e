package main

import (
	"reflect"
	"testing"
	"time"

	"catalyzer"
)

func take(w *Workload, seed int64, n int) []Request {
	s := NewStream(w, seed)
	out := make([]Request, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := take(w, 5, 2000), take(w, 5, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 5 differ", w.Name)
		}
		if reflect.DeepEqual(a, take(w, 6, 2000)) {
			t.Errorf("%s: seeds 5 and 6 give the same stream", w.Name)
		}
	}
}

func TestHeldOutSeedIsNotATuningSeed(t *testing.T) {
	if heldOutSeed >= 1 && heldOutSeed <= 10 {
		t.Fatalf("held-out seed %d is one of the tuning seeds 1..10", heldOutSeed)
	}
	seeds := goldenSeeds()
	if seeds[len(seeds)-1] != heldOutSeed {
		t.Fatalf("golden digests do not cover the held-out seed: %v", seeds)
	}
}

// TestBlocksHoldTheExactMix checks that seeds change only the order of
// requests: every block of each boot kind holds each function its Zipf
// count of times.
func TestBlocksHoldTheExactMix(t *testing.T) {
	for _, w := range workloads {
		counts := zipfCounts(len(w.Fns), blockSize)
		total := 0
		for i := 1; i < len(counts); i++ {
			if counts[i] > counts[i-1] || counts[i] < 1 {
				t.Fatalf("%s: counts %v are not a Zipf split", w.Name, counts)
			}
		}
		for _, c := range counts {
			total += c
		}
		if total != blockSize {
			t.Fatalf("%s: counts sum to %d, want %d", w.Name, total, blockSize)
		}
		for _, seed := range []int64{1, 2, heldOutSeed} {
			reqs := take(w, seed, 3*blockSize*len(w.Kinds))
			for k, kind := range w.Kinds {
				var ofKind []Request
				for i, r := range reqs {
					if i%len(w.Kinds) == k {
						if r.Kind != kind {
							t.Fatalf("%s: request %d is %s, want %s", w.Name, i, r.Kind, kind)
						}
						ofKind = append(ofKind, r)
					}
				}
				for b := 0; b < 3; b++ {
					seen := make(map[string]int)
					for _, r := range ofKind[b*blockSize : (b+1)*blockSize] {
						seen[r.Fn]++
					}
					for i, fn := range w.Fns {
						if seen[fn] != counts[i] {
							t.Errorf("%s seed %d %s block %d: %s %d times, want %d", w.Name, seed, kind, b, fn, seen[fn], counts[i])
						}
					}
				}
			}
		}
	}
}

func TestRestoreMixAlternatesKinds(t *testing.T) {
	w, err := workloadByName("restore-mix")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range take(w, 3, 10) {
		want := catalyzer.WarmBoot
		if i%2 == 1 {
			want = catalyzer.ColdBoot
		}
		if r.Kind != want {
			t.Fatalf("request %d is %s, want %s", i, r.Kind, want)
		}
	}
}

func TestOpenLoopScheduleRate(t *testing.T) {
	w, err := workloadByName("fleet-http")
	if err != nil {
		t.Fatal(err)
	}
	d := 100 * time.Second
	reqs := schedule(w, 1, d)
	rate := float64(len(reqs)) / d.Seconds()
	if rate < 0.95*w.Rate || rate > 1.05*w.Rate {
		t.Fatalf("schedule offers %.1f requests/s, want about %.0f", rate, w.Rate)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Due < reqs[i-1].Due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
	}
	if last := reqs[len(reqs)-1].Due; last >= d {
		t.Fatalf("last request due at %v, after the %v run", last, d)
	}
}

func TestClosedLoopStreamsHaveNoSchedule(t *testing.T) {
	for _, w := range workloads {
		if w.Rate > 0 {
			continue
		}
		for _, r := range take(w, 1, 10) {
			if r.Due != 0 {
				t.Fatalf("%s: closed-loop request due at %v", w.Name, r.Due)
			}
		}
	}
}
