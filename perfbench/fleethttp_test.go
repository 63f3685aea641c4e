package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"catalyzer"
)

// fakeDaemon serves POST /invoke after a fixed delay and GET /metrics
// with the boot counts it has served.
func fakeDaemon(t *testing.T, delay time.Duration) *daemon {
	var mu sync.Mutex
	forks := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		mu.Lock()
		forks++
		mu.Unlock()
		q := r.URL.Query()
		fmt.Fprintf(w, `{"function":%q,"boot":%q,"served_by":%q}`, q.Get("fn"), q.Get("boot"), q.Get("boot"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		_ = json.NewEncoder(w).Encode(map[string]any{"boots": map[string]any{"fork": map[string]int{"count": forks}}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &daemon{base: srv.URL, client: srv.Client()}
}

func openLoopProblems(t *testing.T, delay time.Duration, rate float64, shape loopShape) (*Report, *openLoop) {
	t.Helper()
	w := &Workload{Name: "test", Fns: []string{"f", "g"}, Kinds: []catalyzer.BootKind{catalyzer.ForkBoot}, Rate: rate}
	dm := fakeDaemon(t, delay)
	reqs := schedule(w, 1, 500*time.Millisecond)
	ol := driveOpenLoop(context.Background(), dm, reqs, shape)
	counts, err := dm.bootCounts(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	checkOpenLoop(rep, reqs, ol, counts)
	return rep, ol
}

func TestOpenLoopOnSchedule(t *testing.T) {
	rep, ol := openLoopProblems(t, 0, 400, openShape)
	if len(rep.Problems) > 0 {
		t.Fatalf("a fast daemon at 400/s: %v", rep.Problems)
	}
	if len(ol.scrape) == 0 {
		t.Fatal("no scrapes recorded")
	}
}

// TestClosedLoopTimesFromSend drives a daemon that takes 2 ms per request
// unpaced on one connection: every request is timed from its send, so
// none is late and none takes much longer than the daemon's delay,
// although the schedule's due times run far ahead of the loop.
func TestClosedLoopTimesFromSend(t *testing.T) {
	delay := 2 * time.Millisecond
	rep, ol := openLoopProblems(t, delay, 2000, loopShape{conns: 1})
	if len(rep.Problems) > 0 {
		t.Fatalf("closed loop: %v", rep.Problems)
	}
	for i, late := range ol.late {
		if late != 0 {
			t.Fatalf("request %d recorded %v late in a closed loop", i, late)
		}
	}
	if p50 := Median(ol.lat); p50 < float64(delay)/1e6 || p50 > 10*float64(delay)/1e6 {
		t.Fatalf("median latency %.3f ms, want about the daemon's %v", p50, delay)
	}
}

// TestLaggingRunIsInvalid drives a daemon that takes 50 ms per request at
// 200 requests/s over two connections: the generator cannot keep to its
// schedule, the backlog grows past a second, and the run is flagged
// invalid.
func TestLaggingRunIsInvalid(t *testing.T) {
	rep, ol := openLoopProblems(t, 50*time.Millisecond, 200, openShape)
	found := false
	for _, p := range rep.Problems {
		found = found || strings.Contains(p, "fell behind its schedule")
	}
	if !found {
		t.Fatalf("lagging run not flagged; problems: %v", rep.Problems)
	}
	last := len(ol.late) - 1
	if ol.late[last] < lagLimit {
		t.Fatalf("last request sent %v late, want the backlog to show", ol.late[last])
	}
	// Latency counts from when a request was due, so it includes the lag.
	if ol.lat[last] < float64(ol.late[last])/1e6 {
		t.Fatalf("latency %.1f ms is less than the %v the request waited to be sent", ol.lat[last], ol.late[last])
	}
}

func TestDaemonCountMismatchIsCaught(t *testing.T) {
	reqs := []Request{{Fn: "f", Kind: "fork"}, {Fn: "g", Kind: "fork"}}
	ol := &openLoop{
		lat:     []float64{1, 1},
		late:    []time.Duration{0, 0},
		errs:    []error{nil, nil},
		replies: []invokeReply{{Function: "f", Boot: "fork", ServedBy: "fork"}, {Function: "g", Boot: "fork", ServedBy: "warm"}},
		elapsed: time.Second,
	}
	rep := newReport()
	checkOpenLoop(rep, reqs, ol, map[string]int{"fork": 2})
	if len(rep.Problems) == 0 {
		t.Fatal("daemon counts 2 fork boots, client saw 1 fork and 1 warm: want a problem")
	}
}
