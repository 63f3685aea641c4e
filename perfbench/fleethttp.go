package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A run in which some request was sent more than lagLimit after it was
// due fell behind its schedule and is invalid. A daemon that cannot keep
// up builds a backlog that grows by the second; a stall of a shared
// machine delays requests by tens of milliseconds and then clears.
const lagLimit = time.Second

// spinBefore is how long before a request's due time the open loop
// stops sleeping and spins.
const spinBefore = time.Millisecond

// The in-process fleet that measures fleet-http's allocations serves
// allocWarmup requests first, while one-time template forks and spills
// settle, then measures allocRequests more.
const (
	allocWarmup   = 2000
	allocRequests = 3000
)

// loopShape is how the fleet-http load generator drives the daemon.
type loopShape struct {
	conns int
	// paced sends each request at its due time and times it from then.
	// Unpaced, each connection sends its next request as soon as the
	// previous one is answered, a closed loop, and times it from the send.
	paced bool
}

// openShape is the measured fleet-http run: the seeded open loop.
var openShape = loopShape{conns: httpConns, paced: true}

// schedule returns the open-loop requests of w due within d.
func schedule(w *Workload, seed int64, d time.Duration) []Request {
	s := NewStream(w, seed)
	var out []Request
	for {
		r := s.Next()
		if r.Due >= d {
			return out
		}
		out = append(out, r)
	}
}

// openLoop is what the load generator observed.
type openLoop struct {
	lat     []float64 // ms from when each request was due to its response
	late    []time.Duration
	errs    []error
	replies []invokeReply
	scrape  []float64 // ms per GET /metrics
	// scrapeErrs counts scrapes that failed or did not answer 200.
	scrapeErrs int
	elapsed    time.Duration
}

// driveOpenLoop sends reqs over the connections of shape and scrapes GET
// /metrics after every scrapeEvery completed invocations. Paced, latency
// is timed from when a request was due, so a stalled connection charges
// its wait to the requests queued behind it.
func driveOpenLoop(ctx context.Context, dm *daemon, reqs []Request, shape loopShape) *openLoop {
	ol := &openLoop{
		lat:     make([]float64, len(reqs)),
		late:    make([]time.Duration, len(reqs)),
		errs:    make([]error, len(reqs)),
		replies: make([]invokeReply, len(reqs)),
	}
	var next, done, scrapeErrs atomic.Int64
	scrapes := make([][]float64, shape.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < shape.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				from := time.Now()
				if shape.paced {
					from = start.Add(reqs[i].Due)
					// A sleeping goroutine wakes up to a millisecond
					// late, more on a loaded host, and latency counts
					// from the due time; so it sleeps until spinBefore
					// the due time and spins the rest.
					if wait := time.Until(from); wait > spinBefore {
						time.Sleep(wait - spinBefore)
					}
					for time.Now().Before(from) {
					}
					ol.late[i] = time.Since(from)
				}
				ol.replies[i], ol.errs[i] = dm.invoke(ctx, reqs[i].Fn, reqs[i].Kind)
				ol.lat[i] = float64(time.Since(from)) / 1e6
				if done.Add(1)%int64(scrapeEvery) == 0 {
					t := time.Now()
					if code, _, err := dm.get(ctx, "/metrics"); err == nil && code == 200 {
						scrapes[c] = append(scrapes[c], float64(time.Since(t))/1e6)
					} else {
						scrapeErrs.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	ol.elapsed = time.Since(start)
	ol.scrapeErrs = int(scrapeErrs.Load())
	for _, s := range scrapes {
		ol.scrape = append(ol.scrape, s...)
	}
	return ol
}

// runOpenLoop measures fleet-http: a catalyzerd fleet driven over
// loopback HTTP with the requests of the workload's seeded schedule for
// d, in the given shape. It also returns the host latency of every
// invocation, in ms.
func runOpenLoop(ctx context.Context, w *Workload, o options, d time.Duration, rounds int, shape loopShape) (*Report, []float64, error) {
	rep := newReport()
	dm, err := setupDaemon(ctx, w, o, rounds, rep)
	if err != nil {
		return nil, nil, err
	}
	reqs := schedule(w, o.seed, d)
	steal := newStealMeter()
	ol := driveOpenLoop(ctx, dm, reqs, shape)
	steal.note(rep)
	rss, rssErr := peakRSSMB(dm.pid())
	counts, countErr := dm.bootCounts(ctx)
	dm.stop()
	if rssErr != nil {
		return nil, nil, rssErr
	}
	if countErr != nil {
		return nil, nil, countErr
	}

	served := checkOpenLoop(rep, reqs, ol, counts)
	rep.Values["throughput_per_s"] = float64(served) / ol.elapsed.Seconds()
	rep.Values["peak_rss_mb"] = rss
	// A failed request fails the run, so every sample is a success. The
	// yardstick cannot run beside an open loop without delaying it, so
	// fleet-http's latency is not scaled.
	latencyMetrics(rep, 1, ol.lat, ol.scrape)
	allocs, bytes, err := fleetAllocs(ctx, w, o.seed)
	if err != nil {
		return nil, nil, err
	}
	rep.Values["allocs_per_op"] = allocs
	rep.Values["bytes_per_op"] = bytes
	return rep, ol.lat, nil
}

// checkOpenLoop checks that every request succeeded and that the daemon's
// per-kind boot counts equal the successes the client saw, and that the
// generator kept to its schedule. It returns the number of successes.
func checkOpenLoop(rep *Report, reqs []Request, ol *openLoop, counts map[string]int) int {
	rep.Attempted = len(reqs)
	seen := make(map[string]int)
	var late []float64
	var maxLate time.Duration
	for i, r := range reqs {
		late = append(late, float64(ol.late[i])/1e6)
		maxLate = max(maxLate, ol.late[i])
		if err := ol.errs[i]; err != nil {
			if rep.Failed == 0 {
				rep.Note("first failure: invoke %s: %v", r.Fn, err)
			}
			rep.Failed++
			continue
		}
		got := ol.replies[i]
		if got.Function != r.Fn || got.Boot != string(r.Kind) {
			rep.Problem("request %d: asked for %s/%s, reply is for %s/%s", i, r.Fn, r.Kind, got.Function, got.Boot)
		}
		seen[got.ServedBy]++
	}
	for _, k := range sortedKeys(counts) {
		if counts[k] != seen[k] {
			rep.Problem("daemon counts %d %s boots, client saw %d", counts[k], k, seen[k])
		}
	}
	for _, k := range sortedKeys(seen) {
		if _, ok := counts[k]; !ok {
			rep.Problem("client saw %d %s boots, daemon counts none", seen[k], k)
		}
	}
	if ol.scrapeErrs > 0 {
		rep.Problem("%d GET /metrics scrapes failed", ol.scrapeErrs)
	}
	ls := Summarize(late)
	rep.Note("offered %d requests at %.0f/s in %.3f s", len(reqs), float64(len(reqs))/ol.elapsed.Seconds(), ol.elapsed.Seconds())
	rep.Note("send lateness: p50 %.4f ms, %s, max %.4f ms (%d samples)", ls.P50, ls.Tail("ms"), float64(maxLate)/1e6, ls.N)
	if maxLate > lagLimit {
		rep.Problem("generator fell behind its schedule: a request was sent %v after it was due", maxLate)
	}
	rep.Note("error_rate %.6f (%d of %d), degraded_rate %.6f", float64(rep.Failed)/float64(max(rep.Attempted, 1)),
		rep.Failed, rep.Attempted, 1-float64(seen["fork"])/float64(max(len(reqs)-rep.Failed, 1)))
	return len(reqs) - rep.Failed
}

// fleetAllocs serves the stream on an in-process fleet shaped like the
// daemon's and returns the Go heap allocations and bytes per invocation.
// The daemon's own heap cannot be observed from outside its process.
func fleetAllocs(ctx context.Context, w *Workload, seed int64) (float64, float64, error) {
	f, err := newFleet()
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	for _, fn := range w.Fns {
		if err := f.Deploy(ctx, fn); err != nil {
			return 0, 0, fmt.Errorf("deploy %s: %w", fn, err)
		}
	}
	s := NewStream(w, seed)
	for i := 0; i < allocWarmup; i++ {
		r := s.Next()
		if _, err := f.Invoke(ctx, r.Fn, r.Kind); err != nil {
			return 0, 0, fmt.Errorf("in-process fleet invoke %s: %w", r.Fn, err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRequests; i++ {
		r := s.Next()
		if _, err := f.Invoke(ctx, r.Fn, r.Kind); err != nil {
			return 0, 0, fmt.Errorf("in-process fleet invoke %s: %w", r.Fn, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocRequests,
		float64(after.TotalAlloc-before.TotalAlloc) / allocRequests, nil
}
