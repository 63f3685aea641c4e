// Command perfbench is the repository's benchmark. It drives the system
// only from outside: in-process through catalyzer.Client and
// catalyzer.Fleet, and over loopback HTTP through a catalyzerd daemon.
//
//	perfbench --workload fork-large --seed 1 --seconds 15 --trace 0 --daemon <catalyzerd> --out <dir>
//
// With --trace 0 it measures the workload's end-to-end metrics; with
// --trace 1 it replays the workload's request stream through each layer
// with spans around every call and reports per-layer metrics. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A run whose correctness check fails
// prints no metrics and exits with status 1.
//
// --steady N runs the workload N times, each in its own process and with
// its own seed, and reports each end-to-end metric's spread against the
// bounds in BENCHMARK.json. --golden <file> records the virtual-time
// results the correctness check compares against.
//
// See README.md in this directory for the workloads, the metrics and how
// each layer is expected to move them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// e2eMetrics are the end-to-end metrics of an untraced run, reported for
// every workload. In the closed loops, throughput and latency are scaled
// by the run's yardstick (yardstick.go). Latency tails and the scrape
// latency are printed, not gated: see README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the per-layer metrics of a traced run. A layer the
// workload does not call reports 0.
var layerMetrics = []metricDef{
	{"memory.clone_cow_us", "us"},
	{"memory.release_us", "us"},
	{"memory.pages_cloned", "count"},
	{"memory.frames_live", "count"},
	{"memory.cow_faults", "count"},
	{"sandbox.execute_us", "us"},
	{"sandbox.release_us", "us"},
	{"core.sfork_us", "us"},
	{"core.restore_us", "us"},
	{"serial.decode_records_us", "us"},
	{"serial.fixup_records_us", "us"},
	{"serial.records", "count"},
	{"serial.allocs_per_decode", "count"},
	{"vfs.reconnect_us", "us"},
	{"vfs.conns", "count"},
	{"platform.invoke_recover_us", "us"},
	{"platform.fallbacks", "count"},
	{"platform.retries", "count"},
	{"admission.acquire_us", "us"},
	{"admission.queue_peak", "count"},
	{"catalyzer.invoke_overhead_us", "us"},
	{"catalyzer.stats_us", "us"},
	{"fleet.dispatch_us", "us"},
	{"fleet.spills", "count"},
	{"fleet.template_forks", "count"},
	{"fleet.image_pulls", "count"},
	{"fleet.failovers", "count"},
	{"catalyzerd.http_overhead_us", "us"},
	{"catalyzerd.metrics_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.requests", "count"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object printed as the last line of a run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report collects what one run measured and what its checks found.
type Report struct {
	Attempted, Failed int
	Problems          []string // failed correctness checks
	Values            map[string]float64
	Notes             []string // human-readable lines printed before the result
}

func newReport() *Report { return &Report{Values: make(map[string]float64)} }

// Problem records a failed correctness check.
func (r *Report) Problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Note records a human-readable line.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// result assembles the final JSON object from the metrics in defs. A
// run that failed a check or is missing a metric reports no numbers.
func (r *Report) result(defs []metricDef) Result {
	out := Result{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		if _, ok := r.Values[d.Name]; !ok {
			r.Problem("metric %s was not measured", d.Name)
		}
	}
	if r.Failed > 0 {
		r.Problem("%d of %d invocations failed", r.Failed, r.Attempted)
	}
	if len(r.Problems) > 0 {
		return out
	}
	out.Correct = true
	for _, d := range defs {
		out.Metrics[d.Name] = Metric{Value: r.Values[d.Name], Unit: d.Unit}
	}
	return out
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string
	out      string
	steady   int
	golden   string
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: fork-large, restore-mix or fleet-http")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated request stream")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0 measures end-to-end metrics; 1 runs the traced per-layer replay")
	flag.StringVar(&o.daemon, "daemon", "", "path of the catalyzerd binary (fleet-http)")
	flag.StringVar(&o.out, "out", ".", "directory for trace files")
	flag.IntVar(&o.steady, "steady", 0, "run the workload this many times with distinct seeds and report each metric's spread")
	flag.StringVar(&o.golden, "golden", "", "record the virtual-time results of the in-process workloads to this file and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %q\n", flag.Args())
		return 2
	}
	if o.golden != "" {
		if err := writeGolden(context.Background(), o.golden); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if o.steady > 0 {
		if err := runSteady(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	ctx := context.Background()
	d := time.Duration(o.seconds) * time.Second
	var rep *Report
	defs := e2eMetrics
	switch {
	case o.trace == 1:
		defs = layerMetrics
		rep, err = runTraced(ctx, w, o)
	case w.Rate > 0:
		rep, _, err = runOpenLoop(ctx, w, o, d, setupRounds, openShape)
	default:
		rep, _, err = runClosedLoop(ctx, w, o.seed, d, setupRounds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := rep.result(defs)
	printReport(rep, defs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printReport prints the human-readable part of a run: notes, every
// metric by name and unit, and any failed check.
func printReport(rep *Report, defs []metricDef) {
	for _, n := range rep.Notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		if v, ok := rep.Values[d.Name]; ok {
			fmt.Printf("%-30s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	for _, p := range rep.Problems {
		fmt.Println("CHECK FAILED:", p)
	}
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuTicks reads the machine's total and stolen CPU time, in clock ticks,
// from /proc/stat. Steal is time a virtual machine's CPUs were runnable
// but held by the host; a run measured while it was high ran slower.
func cpuTicks() (total, steal uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// stealMeter notes the share of CPU time the host stole between its
// creation and note.
type stealMeter struct{ total, steal uint64 }

func newStealMeter() stealMeter {
	t, s, _ := cpuTicks() // without /proc/stat there is no steal to report
	return stealMeter{t, s}
}

func (m stealMeter) note(rep *Report) {
	t, s, err := cpuTicks()
	if err != nil || t <= m.total {
		return
	}
	rep.Note("host CPU steal during the measured loop: %.1f%% of CPU time", 100*float64(s-m.steal)/float64(t-m.total))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
