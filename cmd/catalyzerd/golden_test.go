package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"catalyzer"
)

// The golden files hold the daemon's replies to a fixed sequential
// script in each mode. They were recorded before the stats types were
// folded into one declaration each, so a /metrics or /health body that
// loses, renames or re-scales a key fails the comparison. Rewrite them
// with -update only when a body is meant to change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden.json from the current daemon")

// reply is one recorded request: its method and path, the status, and
// the body decoded as JSON (or kept as text when it is not JSON).
type reply struct {
	Request string `json:"request"`
	Status  int    `json:"status"`
	Body    any    `json:"body"`
}

// script drives a daemon over HTTP and records every reply.
type script struct {
	t       *testing.T
	srv     *httptest.Server
	replies []reply
}

func (s *script) do(method, path string) {
	s.t.Helper()
	req, err := http.NewRequest(method, s.srv.URL+path, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		s.t.Fatal(err)
	}
	var body any
	if json.Unmarshal(raw, &body) != nil {
		body = string(raw)
	}
	s.replies = append(s.replies, reply{Request: method + " " + path, Status: resp.StatusCode, Body: body})
}

// check compares the recorded replies with testdata/<name>.golden.json
// after a JSON round trip, so only key order may differ.
func (s *script) check(name string) {
	s.t.Helper()
	path := filepath.Join("testdata", name+".golden.json")
	got, err := json.MarshalIndent(s.replies, "", "  ")
	if err != nil {
		s.t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			s.t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		s.t.Fatal(err)
	}
	var gotV, wantV []reply
	if err := json.Unmarshal(got, &gotV); err != nil {
		s.t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantV); err != nil {
		s.t.Fatal(err)
	}
	if len(gotV) != len(wantV) {
		s.t.Fatalf("%d replies, golden has %d", len(gotV), len(wantV))
	}
	for i := range wantV {
		if !reflect.DeepEqual(gotV[i], wantV[i]) {
			g, _ := json.Marshal(gotV[i])
			w, _ := json.Marshal(wantV[i])
			s.t.Errorf("reply %d (%s) differs from %s\n got: %s\nwant: %s", i, wantV[i].Request, path, g, w)
		}
	}
}

// TestGoldenSingleMachine replays deploys, invokes under armed faults and
// a request shed during drain against a single-machine daemon.
func TestGoldenSingleMachine(t *testing.T) {
	c := catalyzer.NewClient(catalyzer.WithFaultSeed(7),
		catalyzer.WithAdmission(catalyzer.AdmissionConfig{MaxConcurrent: 8, QueueDepth: 4}))
	t.Cleanup(c.Close)
	srv := httptest.NewServer(Handler(c))
	t.Cleanup(srv.Close)
	s := &script{t: t, srv: srv}

	s.do("POST", "/deploy?fn=c-hello")
	s.do("POST", "/deploy?fn=python-hello")
	s.do("GET", "/metrics")
	s.do("GET", "/health")
	for _, site := range []string{"sfork", "zygote-take", "image-load"} {
		if err := c.ArmFault(site, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	kinds := []string{"fork", "warm", "cold"}
	for i := 0; i < 12; i++ {
		fn := []string{"c-hello", "python-hello"}[i%2]
		s.do("POST", "/invoke?fn="+fn+"&boot="+kinds[i%3])
	}
	c.DisarmFaults()
	c.WaitSupervision()
	s.do("GET", "/metrics")
	s.do("GET", "/health")

	c.BeginDrain()
	s.do("POST", "/invoke?fn=c-hello&boot=fork")
	s.do("GET", "/metrics")
	s.do("GET", "/health")
	s.check("single")
}

// TestGoldenFleet replays deploys, invokes under armed faults and a
// machine kill and restart against a seeded 3-machine fleet daemon.
func TestGoldenFleet(t *testing.T) {
	f, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 3, Replication: 2}, catalyzer.WithFaultSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	srv := httptest.NewServer(FleetHandler(f))
	t.Cleanup(srv.Close)
	s := &script{t: t, srv: srv}

	s.do("POST", "/deploy?fn=c-hello")
	s.do("POST", "/deploy?fn=python-hello")
	s.do("GET", "/metrics")
	s.do("GET", "/health")
	for _, site := range []string{"machine-slow", "sfork"} {
		if err := f.ArmFault(site, 0.4); err != nil {
			t.Fatal(err)
		}
	}
	invoke := func(n int) {
		for i := 0; i < n; i++ {
			fn := []string{"c-hello", "python-hello"}[i%2]
			s.do("POST", "/invoke?fn="+fn+"&boot="+[]string{"fork", "warm"}[i%2])
		}
	}
	invoke(8)
	s.do("POST", "/machines/kill?idx=1")
	invoke(6)
	f.DisarmFaults()
	s.do("GET", "/metrics")
	s.do("GET", "/health")
	s.do("GET", "/machines")

	s.do("POST", "/machines/restart?idx=1")
	invoke(4)
	s.do("GET", "/metrics")
	s.do("GET", "/health")
	s.check("fleet")
}

// TestMetricsCarriesEveryField walks every exported field of each stats
// type /metrics renders and checks that its key is in the body: each
// field carries a json tag naming its key, and a Duration's key ends in
// _ms because it is written as milliseconds.
func TestMetricsCarriesEveryField(t *testing.T) {
	c := catalyzer.NewClient(catalyzer.WithFaultSeed(3))
	t.Cleanup(c.Close)
	csrv := httptest.NewServer(Handler(c))
	t.Cleanup(csrv.Close)
	post(t, csrv, "/deploy?fn=c-hello")
	if err := c.ArmFault("sfork", 1); err != nil {
		t.Fatal(err)
	}
	post(t, csrv, "/invoke?fn=c-hello&boot=fork")

	fsrv, _ := newFleetTestServer(t)
	post(t, fsrv, "/deploy?fn=c-hello")
	post(t, fsrv, "/invoke?fn=c-hello&boot=fork")

	sections := []struct {
		srv     *httptest.Server
		section string
		typ     reflect.Type
	}{
		{csrv, "failures", reflect.TypeOf(catalyzer.FailureStats{})},
		{csrv, "overload", reflect.TypeOf(catalyzer.OverloadStats{})},
		{csrv, "supervise", reflect.TypeOf(catalyzer.SuperviseStats{})},
		{fsrv, "fleet", reflect.TypeOf(catalyzer.FleetStats{})},
		{csrv, "boots.*", reflect.TypeOf(catalyzer.KindStats{})},
		{fsrv, "boots.*", reflect.TypeOf(catalyzer.KindStats{})},
	}
	for _, sec := range sections {
		s := &script{t: t, srv: sec.srv}
		s.do("GET", "/metrics")
		body, _ := s.replies[0].Body.(map[string]any)
		for _, k := range strings.Split(sec.section, ".") {
			if k == "*" {
				// Any row will do: every row renders the same type.
				for _, row := range body {
					body, _ = row.(map[string]any)
					break
				}
				continue
			}
			body, _ = body[k].(map[string]any)
		}
		if body == nil {
			t.Fatalf("%s: no %q object in /metrics", sec.srv.URL, sec.section)
		}
		for i := 0; i < sec.typ.NumField(); i++ {
			f := sec.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if key == "" || key == "-" {
				t.Errorf("%s.%s has no json key", sec.typ, f.Name)
				continue
			}
			if f.Type == reflect.TypeOf(catalyzer.Duration(0)) && !strings.HasSuffix(key, "_ms") {
				t.Errorf("%s.%s is a Duration under key %q, which lacks the _ms unit", sec.typ, f.Name, key)
			}
			if _, ok := body[key]; !ok {
				t.Errorf("/metrics %s lacks %q (%s.%s)", sec.section, key, sec.typ, f.Name)
			}
		}
	}
}
