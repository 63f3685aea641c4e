package catalyzer

import (
	"sort"
	"sync"

	"catalyzer/internal/platform"
)

// KindStats summarizes the invocations a client has served with one boot
// kind. The json tags are the daemon's /metrics keys; a Duration is
// written there as float milliseconds.
type KindStats struct {
	Count    int      `json:"count"`
	MeanBoot Duration `json:"mean_ms"`
	P50Boot  Duration `json:"p50_ms"`
	P95Boot  Duration `json:"p95_ms"`
	P99Boot  Duration `json:"p99_ms"`
	MaxBoot  Duration `json:"max_ms"`
}

// statsCollector accumulates per-kind boot metrics inside a Client. It
// has its own mutex so stats never contend with invocation locks.
type statsCollector struct {
	mu     sync.Mutex
	byKind map[BootKind]*platform.Metrics
}

func newStatsCollector() *statsCollector {
	return &statsCollector{byKind: make(map[BootKind]*platform.Metrics)}
}

func (sc *statsCollector) observe(kind BootKind, boot Duration) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	m, ok := sc.byKind[kind]
	if !ok {
		m = platform.NewMetrics(string(kind))
		sc.byKind[kind] = m
	}
	m.ObserveDuration(boot)
}

// snapshot returns the per-kind boot latency distributions collected so
// far (shared by Client.Stats and Fleet.Stats).
func (sc *statsCollector) snapshot() map[BootKind]KindStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[BootKind]KindStats, len(sc.byKind))
	for kind, m := range sc.byKind {
		out[kind] = KindStats{
			Count:    m.Count(),
			MeanBoot: m.Mean(),
			P50Boot:  m.Percentile(50),
			P95Boot:  m.Percentile(95),
			P99Boot:  m.Percentile(99),
			MaxBoot:  m.Max(),
		}
	}
	return out
}

// kinds returns the kinds with recorded invocations, sorted.
func (sc *statsCollector) kinds() []BootKind {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]BootKind, 0, len(sc.byKind))
	for k := range sc.byKind {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns the per-kind boot latency distribution of everything this
// client has served.
func (c *Client) Stats() map[BootKind]KindStats { return c.stats.snapshot() }

// StatsKinds returns the kinds with recorded invocations, sorted.
func (c *Client) StatsKinds() []BootKind { return c.stats.kinds() }
