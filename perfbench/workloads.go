package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"catalyzer"
)

// heldOutSeed is kept out of every tuning run of the benchmark: a claimed
// gain found on other seeds is confirmed on this one before it is
// reported. Seeds 1 to 10 are the tuning seeds.
const heldOutSeed = 424242

// blockSize is the number of requests of one boot kind over which a
// stream's function mix is exact: each block holds every function its
// Zipf share of times, in a seeded order. Seeds therefore change the
// order of requests, never the mix, so a run measures the same work
// whatever its seed.
const blockSize = 100

// zipfExponent skews popularity: the first function of a workload is
// requested most often.
const zipfExponent = 1.0

// Workload is one traffic mix the benchmark runs.
type Workload struct {
	Name string
	// Fns in popularity order, most popular first.
	Fns []string
	// Kinds are cycled by request index.
	Kinds []catalyzer.BootKind
	// Rate is the open-loop arrival rate in requests per second; 0 makes
	// the workload a closed loop with one client.
	Rate float64
}

// scrapeEvery is how many invocations pass between two metrics reads, on
// every workload: one read per 50 invocations is the scrape rate
// fleet-http is defined with, and the in-process workloads read at the
// same rate, so that reads are the same share of the work on all three.
const scrapeEvery = 50

// The popularity order of each workload puts the median request in the
// middle of one function's share, not on the edge between two functions
// of different cost, so that latency_p50_ms does not jump between them.
var workloads = []*Workload{
	{
		// Large-memory functions: sfork's page-table bookkeeping
		// (memory.CloneCoW and Release) dominates host time.
		Name: "fork-large",
		Fns: []string{"python-django", "java-specjbb", "ecom-report", "ruby-sinatra",
			"java-specjbb-late", "ecom-advertisement", "pillow-enhancement", "nodejs-web",
			"ecom-discount", "pillow-filters", "pillow-rolling", "ecom-purchase",
			"pillow-splitmerge", "pillow-transpose"},
		Kinds: []catalyzer.BootKind{catalyzer.ForkBoot},
	},
	{
		// Restore paths: per-record decoding in serial and reconnection
		// in vfs run on every boot; no template is cloned.
		Name: "restore-mix",
		Fns: []string{"python-django", "java-specjbb", "nodejs-web", "ruby-sinatra",
			"java-hello", "python-hello", "nodejs-hello", "ruby-hello"},
		Kinds: []catalyzer.BootKind{catalyzer.WarmBoot, catalyzer.ColdBoot},
	},
	{
		// Small functions over HTTP: boots are cheap, so fleet dispatch,
		// the daemon's handlers and stats bookkeeping dominate.
		Name: "fleet-http",
		Fns: []string{"c-hello", "python-hello", "nodejs-hello", "ruby-hello",
			"deathstar-text", "deathstar-media", "deathstar-composepost",
			"deathstar-uniqueid", "deathstar-timeline"},
		Kinds: []catalyzer.BootKind{catalyzer.ForkBoot},
		Rate:  150,
	},
}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Request is one generated invocation.
type Request struct {
	Fn   string
	Kind catalyzer.BootKind
	// Due is when an open-loop request is to be sent, counted from the
	// start of the run; zero in a closed loop.
	Due time.Duration
}

// Stream generates a workload's requests from a seed. The same workload
// and seed always give the same sequence.
type Stream struct {
	w      *Workload
	counts []int // requests per function in each block
	mix    *rand.Rand
	gaps   *rand.Rand
	blocks [][]int // per boot kind, the rest of its current block
	n      int
	due    float64 // seconds
}

// NewStream starts the request stream of w for seed.
func NewStream(w *Workload, seed int64) *Stream {
	return &Stream{
		w:      w,
		counts: zipfCounts(len(w.Fns), blockSize),
		mix:    rand.New(rand.NewSource(seed)),
		blocks: make([][]int, len(w.Kinds)),
		// Arrival gaps draw from their own source, so the function
		// sequence of a seed does not depend on the arrival process.
		gaps: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

// Next returns the next request.
func (s *Stream) Next() Request {
	k := s.n % len(s.w.Kinds)
	b := s.blocks[k]
	if len(b) == 0 {
		for fn, c := range s.counts {
			for j := 0; j < c; j++ {
				b = append(b, fn)
			}
		}
		s.mix.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	r := Request{Fn: s.w.Fns[b[0]], Kind: s.w.Kinds[k]}
	s.blocks[k] = b[1:]
	s.n++
	if s.w.Rate > 0 {
		s.due += s.gaps.ExpFloat64() / s.w.Rate
		r.Due = time.Duration(s.due * float64(time.Second))
	}
	return r
}

// zipfCounts splits size requests over n ranks in Zipf proportions by the
// largest-remainder method, giving every rank at least one request.
func zipfCounts(n, size int) []int {
	weights := make([]float64, n)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), zipfExponent)
		total += weights[i]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	used := 0
	for i, w := range weights {
		exact := w / total * float64(size)
		counts[i] = max(int(exact), 1)
		rem[i] = exact - float64(int(exact))
		used += counts[i]
	}
	for used < size {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		used++
	}
	return counts
}
