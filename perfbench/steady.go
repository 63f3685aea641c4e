package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Spread is the distance between the first and third quartile of a
// metric's values over several runs, as a share of their median.
func Spread(values []float64) (float64, error) {
	q, err := Quartiles(values)
	if err != nil {
		return 0, err
	}
	if q[1] == 0 {
		return 0, fmt.Errorf("median is 0")
	}
	return (q[2] - q[0]) / q[1], nil
}

// runSteady runs the workload o.steady times, each in its own process
// with seeds o.seed, o.seed+1, ..., and reports every end-to-end metric's
// median and spread against its bound in BENCHMARK.json. A spread above a
// third of its bound is flagged, setup_s's included.
func runSteady(o options) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("steadiness mode runs from the checkout root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < o.steady; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", "0", "--daemon", o.daemon, "--out", o.out)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w\n%s", seed, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res Result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: parse result: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run failed its check\n%s", seed, out.String())
		}
		fmt.Printf("seed %d:", seed)
		for _, d := range e2eMetrics {
			v := res.Metrics[d.Name].Value
			values[d.Name] = append(values[d.Name], v)
			fmt.Printf(" %s=%.4g", d.Name, v)
		}
		fmt.Println()
		// A run measured while the host stole CPU time ran slower; the
		// notes tell such a run apart, and show how far the yardstick
		// scaled it.
		for _, line := range lines {
			if strings.HasPrefix(line, "host CPU steal") || strings.HasPrefix(line, "yardstick:") {
				fmt.Println("  " + line)
			}
		}
	}
	if o.steady < 2 {
		return nil
	}
	unsteady := 0
	type row struct {
		Median float64    `json:"median"`
		Q      [3]float64 `json:"quartiles"`
		Spread float64    `json:"spread"`
		Bound  float64    `json:"bound"`
	}
	rows := make(map[string]row)
	fmt.Printf("%-18s %14s %10s %8s  %s\n", "metric", "median", "spread", "bound", "verdict")
	for _, b := range bf.EndToEnd {
		spread, err := Spread(values[b.Name])
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		q, _ := Quartiles(values[b.Name]) // Spread succeeded, so Quartiles does
		rows[b.Name] = row{Median: Median(values[b.Name]), Q: q, Spread: spread, Bound: b.Bound}
		verdict := "steady"
		switch {
		case spread > b.Bound:
			verdict = "OVER BOUND"
			unsteady++
		case spread > b.Bound/3:
			verdict = "over a third of bound"
			unsteady++
		}
		fmt.Printf("%-18s %14.4f %9.2f%% %7.0f%%  %s\n", b.Name, Median(values[b.Name]), 100*spread, 100*b.Bound, verdict)
	}
	summary, err := json.Marshal(map[string]any{"workload": o.workload, "runs": o.steady,
		"first_seed": o.seed, "seconds": o.seconds, "metrics": rows})
	if err != nil {
		return err
	}
	fmt.Println(string(summary))
	if unsteady > 0 {
		return fmt.Errorf("%s: %d metrics spread more than a third of their bound", o.workload, unsteady)
	}
	return nil
}
