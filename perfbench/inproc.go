package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"catalyzer"
)

// setupRounds is how many times a run sets the system up; setup_s is the
// median. The last round's system is the one measured.
const setupRounds = 9

// virtualResult is the virtual-time outcome of one invocation: the part
// of a result that must not change unless the cost model is recalibrated.
type virtualResult struct {
	Fn     string
	Kind   catalyzer.BootKind
	Served catalyzer.BootKind
	Boot   int64 // virtual ns
	Exec   int64 // virtual ns
}

// deployClient builds a client and deploys every function of w, timing
// the whole setup.
func deployClient(ctx context.Context, w *Workload) (*catalyzer.Client, time.Duration, error) {
	start := time.Now()
	c := catalyzer.NewClient()
	for _, fn := range w.Fns {
		if err := c.Deploy(ctx, fn); err != nil {
			c.Close()
			return nil, 0, fmt.Errorf("deploy %s: %w", fn, err)
		}
	}
	return c, time.Since(start), nil
}

// setupClient runs rounds setups, keeps the last client and records the
// median setup time.
func setupClient(ctx context.Context, w *Workload, rounds int, rep *Report) (*catalyzer.Client, error) {
	var times []float64
	var c *catalyzer.Client
	for i := 0; i < rounds; i++ {
		if c != nil {
			c.Close()
			c = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		c, d, err = deployClient(ctx, w)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	rep.Values["setup_s"] = Median(times)
	rep.Note("setup: %d rounds, %v s each", rounds, times)
	return c, nil
}

// scrapeClient reads everything the daemon's GET /metrics reads.
func scrapeClient(c *catalyzer.Client) {
	_ = c.Stats()
	_ = c.FailureStats()
	_ = c.OverloadStats()
	_ = c.SuperviseStats()
}

// closedRun is what one closed loop observed.
type closedRun struct {
	lat, scrape       []float64 // ms
	results           []virtualResult
	attempted, failed int
	elapsed           time.Duration
	allocs, bytes     uint64 // Go heap allocations and bytes during the loop
	failures          []string
	yard              *yardstick
}

// closedLoop invokes the seeded stream of w back to back on c for d,
// reading the client's stats every scrapeEvery invocations. Every
// yardEvery it takes a yardstick sample, whose time it does not count.
func closedLoop(ctx context.Context, c *catalyzer.Client, w *Workload, seed int64, d time.Duration) *closedRun {
	stream := NewStream(w, seed)
	// Preallocated so the loop's own bookkeeping does not allocate.
	const capHint = 1 << 15
	r := &closedRun{
		lat:     make([]float64, 0, capHint),
		scrape:  make([]float64, 0, capHint/scrapeEvery),
		results: make([]virtualResult, 0, capHint),
	}
	r.yard = newYardstick()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var paused time.Duration // spent on yardstick samples
	lastYard := start
	for time.Since(start)-paused < d {
		if time.Since(lastYard) >= yardEvery {
			paused += r.yard.sample()
			lastYard = time.Now()
		}
		req := stream.Next()
		t := time.Now()
		inv, err := c.Invoke(ctx, req.Fn, req.Kind)
		r.lat = append(r.lat, float64(time.Since(t))/1e6)
		r.attempted++
		if err != nil {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("invoke %s: %v", vkey(req.Fn, req.Kind), err))
			r.results = append(r.results, virtualResult{Fn: req.Fn, Kind: req.Kind})
			continue
		}
		r.results = append(r.results, virtualResult{Fn: req.Fn, Kind: req.Kind, Served: inv.ServedBy,
			Boot: int64(inv.BootLatency), Exec: int64(inv.ExecLatency)})
		if r.attempted%scrapeEvery == 0 {
			t := time.Now()
			scrapeClient(c)
			r.scrape = append(r.scrape, float64(time.Since(t))/1e6)
		}
	}
	r.elapsed = time.Since(start) - paused
	runtime.ReadMemStats(&after)
	r.allocs = after.Mallocs - before.Mallocs
	r.bytes = after.TotalAlloc - before.TotalAlloc
	return r
}

// runClosedLoop measures an in-process workload: one client invokes the
// seeded stream back to back for d. It also returns the host latency of
// every invocation, in ms.
func runClosedLoop(ctx context.Context, w *Workload, seed int64, d time.Duration, rounds int) (*Report, []float64, error) {
	rep := newReport()
	c, err := setupClient(ctx, w, rounds, rep)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	steal := newStealMeter()
	r := closedLoop(ctx, c, w, seed, d)
	steal.note(rep)
	rep.Attempted, rep.Failed = r.attempted, r.failed
	for _, f := range r.failures {
		rep.Note("%s", f)
	}
	n := float64(r.attempted)
	throughput := n / r.elapsed.Seconds()
	scale := r.yard.scale()
	rep.Note("throughput: %.4f invocations per host second as measured", throughput)
	r.yard.note(rep)
	rep.Values["throughput_per_s"] = throughput / scale
	latencyMetrics(rep, scale, r.lat, r.scrape)
	rep.Values["allocs_per_op"] = float64(r.allocs) / n
	rep.Values["bytes_per_op"] = float64(r.bytes) / n
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return nil, nil, err
	}
	rep.Values["peak_rss_mb"] = rss
	perFunction(rep, r.results, r.lat)
	virtualMetrics(rep, r.results)
	checkVirtual(rep, w, seed, r.results)
	return rep, r.lat, nil
}

// latencyMetrics notes the latency and scrape medians as measured, with
// the highest tail percentile each sample supports and its sample count,
// and sets latency_p50_ms to the latency median multiplied by scale.
func latencyMetrics(rep *Report, scale float64, lat, scrape []float64) {
	ls, ss := Summarize(lat), Summarize(scrape)
	rep.Note("latency: %d samples, p50 %.4f ms, %s", ls.N, ls.P50, ls.Tail("ms"))
	rep.Note("scrape: %d samples, p50 %.4f ms, %s", ss.N, ss.P50, ss.Tail("ms"))
	if ls.N > 0 {
		rep.Values["latency_p50_ms"] = ls.P50 * scale
	}
}

// virtualMetrics notes the virtual-time boot percentiles, the error rate
// and the share of invocations a fallback served. They are exact for a
// given seed and run length, so they are printed, not gated.
func virtualMetrics(rep *Report, results []virtualResult) {
	var boots []float64
	degraded := 0
	for _, r := range results {
		if r.Served == "" {
			continue
		}
		boots = append(boots, float64(r.Boot)/1e6)
		if r.Served != r.Kind {
			degraded++
		}
	}
	vs := Summarize(boots)
	rep.Note("virtual_boot_p50_ms %.6f ms, virtual_boot_%s_ms %.6f ms (%d samples)", vs.P50, vs.TailName(), vs.TailVal, vs.N)
	rep.Note("error_rate %.6f (%d of %d), degraded_rate %.6f", float64(rep.Failed)/float64(max(rep.Attempted, 1)),
		rep.Failed, rep.Attempted, float64(degraded)/float64(max(len(boots), 1)))
}

// perFunction notes each function's share of requests and host latency
// median, which shows where in the mix the overall percentiles fall.
func perFunction(rep *Report, results []virtualResult, lat []float64) {
	by := make(map[string][]float64)
	for i, r := range results {
		k := vkey(r.Fn, r.Kind)
		by[k] = append(by[k], lat[i])
	}
	for _, k := range sortedKeys(by) {
		rep.Note("  %-32s %5.1f%% of requests, host p50 %8.3f ms", k, 100*float64(len(by[k]))/float64(len(lat)), Median(by[k]))
	}
}
