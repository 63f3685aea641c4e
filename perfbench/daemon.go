package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"catalyzer"
)

// fleetMachines and fleetReplication shape the fleet of fleet-http, both
// in the daemon and in the in-process fleet that replays its stream.
const (
	fleetMachines    = 5
	fleetReplication = 2
)

// httpConns is how many connections the fleet-http load generator uses:
// the number of CPUs of the machine the benchmark was written on, fixed
// so that the workload is the same on any machine.
const httpConns = 2

func newFleet() (*catalyzer.Fleet, error) {
	return catalyzer.NewFleet(catalyzer.FleetConfig{Machines: fleetMachines, Replication: fleetReplication})
}

// daemon is a catalyzerd subprocess in fleet mode.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been waited for
	log    *os.File
}

// startDaemon starts catalyzerd on a free loopback port and waits until
// it answers HTTP.
func startDaemon(ctx context.Context, bin, logPath string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("fleet-http needs --daemon")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr,
		"-fleet-machines", strconv.Itoa(fleetMachines),
		"-fleet-replication", strconv.Itoa(fleetReplication))
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping the daemon, the kernel kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     httpConns,
			MaxIdleConnsPerHost: httpConns,
			DisableCompression:  true,
		}},
		exited: make(chan struct{}),
		log:    logf,
	}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon stopped by SIGTERM carries nothing
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, err := d.get(ctx, "/health"); err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("catalyzerd exited before serving; see %s", logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("catalyzerd did not answer within 30s; see %s", logPath)
		}
	}
}

// stop shuts the daemon down with SIGTERM, killing it if it has not
// exited after 15 seconds, and waits for it.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

func (d *daemon) do(ctx context.Context, method, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (d *daemon) get(ctx context.Context, path string) (int, []byte, error) {
	return d.do(ctx, http.MethodGet, path)
}

// deploy deploys fn fleet-wide.
func (d *daemon) deploy(ctx context.Context, fn string) error {
	code, body, err := d.do(ctx, http.MethodPost, "/deploy?fn="+url.QueryEscape(fn))
	if err != nil {
		return fmt.Errorf("deploy %s: %w", fn, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("deploy %s: status %d: %s", fn, code, body)
	}
	return nil
}

// invokeReply is the part of POST /invoke's response the benchmark checks.
type invokeReply struct {
	Function string `json:"function"`
	Boot     string `json:"boot"`
	ServedBy string `json:"served_by"`
}

// invoke serves one request through the daemon.
func (d *daemon) invoke(ctx context.Context, fn string, kind catalyzer.BootKind) (invokeReply, error) {
	var r invokeReply
	code, body, err := d.do(ctx, http.MethodPost, "/invoke?fn="+url.QueryEscape(fn)+"&boot="+url.QueryEscape(string(kind)))
	if err != nil {
		return r, err
	}
	if code != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decode invoke reply: %w", err)
	}
	return r, nil
}

// bootCounts scrapes GET /metrics and returns its per-kind boot counts.
func (d *daemon) bootCounts(ctx context.Context) (map[string]int, error) {
	code, body, err := d.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	var m struct {
		Boots map[string]struct {
			Count int `json:"count"`
		} `json:"boots"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	out := make(map[string]int, len(m.Boots))
	for k, v := range m.Boots {
		out[k] = v.Count
	}
	return out, nil
}

// setupDaemon starts the daemon and deploys every function of w, rounds
// times, and keeps the last daemon. setup_s is the median time from
// daemon start to the end of the deploys.
func setupDaemon(ctx context.Context, w *Workload, o options, rounds int, rep *Report) (*daemon, error) {
	var times []float64
	var d *daemon
	for i := 0; i < rounds; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		d, err = startDaemon(ctx, o.daemon, filepath.Join(o.out, fmt.Sprintf("%s-seed%d-daemon%d.log", w.Name, o.seed, i)))
		if err != nil {
			return nil, err
		}
		for _, fn := range w.Fns {
			if err := d.deploy(ctx, fn); err != nil {
				d.stop()
				return nil, err
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	rep.Values["setup_s"] = Median(times)
	rep.Note("setup: %d rounds, %v s each", rounds, times)
	return d, nil
}
