// Command catalyzerd runs the gateway daemon of §2.1 as an HTTP service:
// it accepts "invoke function" requests, boots sandboxes through the
// configured strategy, and reports per-invocation latency breakdowns.
//
//	catalyzerd -addr :8080 -max-concurrent 64 -queue-depth 128
//
// Endpoints:
//
//	POST /deploy?fn=<workload>            prepare func-image + template
//	POST /invoke?fn=<workload>&boot=fork  serve one request (boot: cold|warm|fork|gvisor|...)
//	GET  /functions                       list deployable workloads
//	GET  /stats                           machine stats (live instances, virtual clock)
//	GET  /metrics                         boot latencies + failure/overload counters
//	GET  /health                          liveness/degradation/draining probe
//
// Errors map to statuses by type: an unknown function is 404, a bad
// parameter (including an unknown boot kind) is 400, a shed request is
// 429 with a Retry-After hint, a request arriving during drain is 503,
// an expired deadline is 504, a canceled request is 499, and a boot
// whose whole fallback chain failed is 500. A request with the wrong
// method gets 405 with an Allow header.
//
// Invocations honour an optional deadline_ms query parameter (and the
// HTTP request context): the deadline bounds admission queueing and the
// recovery boot chain, which aborts between fallback stages.
//
// GET /health returns 200 with {"status":"ok"} while every circuit
// breaker is closed, 503 with {"status":"degraded"} plus the list of
// open breakers when the failure-recovery machinery has a boot path shut
// off, and 503 with {"status":"draining"} once shutdown has begun. The
// body also carries live-instance and quarantine counts, so an
// orchestrator can alert on template/image churn before requests fail.
//
// With -store-dir the daemon persists func-images in a crash-consistent
// on-disk store (journaled manifest, per-image generations with a
// last-known-good fallback). On restart it rehydrates the function
// registry from the store's manifest, so previously deployed functions
// serve without a fresh /deploy; /metrics carries the recovery outcome
// and the store's durability counters (rollbacks, scrub repairs,
// quarantines, orphan sweeps), and /health reports rollbacks and the
// recovered-function count.
//
// With -fleet-machines N the daemon runs a fleet of N machines behind a
// health-checked membership view and consistent-hash placement instead
// of a single machine: /deploy replicates func-images R ways
// (-fleet-replication), /invoke reports the serving machine and fails
// over off dead machines, and GET /machines plus the chaos hooks
// POST /machines/kill and POST /machines/restart expose the membership
// view. /metrics carries a "fleet" section (membership gauges, failover
// and re-replication counters, per-machine served/live vectors) and
// /health reports "degraded" with the down machine indices while any
// member is down. Machine-level failures (ErrMachineDown,
// ErrMachineUnreachable, ErrNoSurvivors, ErrZoneDegraded) map to
// retryable 503s with a Retry-After hint; an undeployed function is 404.
//
// With -fleet-zones Z the machines stripe across Z failure domains
// ("z0".."zN-1", machine i in zone i % Z) and /deploy spreads each
// replica set across distinct zones, so a whole-zone outage cannot take
// every copy of a function. -fleet-repair-budget caps concurrent
// re-replications after machine losses; the excess queues
// deterministically. /machines reports each member's zone and /health
// summarizes membership per zone.
//
// With -fleet-store-dir every fleet machine owns a crash-consistent
// store in a per-machine subdirectory (m0..mN-1 under the given root),
// replica pulls are acknowledged only after a journaled fsync, and a
// daemon restarted over the same root recovers the whole fleet from
// disk: each store scrubs and rehydrates, a deterministic
// reconciliation pass settles replica divergence (highest verified
// generation wins, stale copies re-pull, byte-divergent ones are
// quarantined and re-pulled), placement re-derives, and replica sets
// top back up to R under the repair budget. /metrics and /health carry
// the recovery counters (stores/functions recovered, torn stores,
// stale re-pulls, divergent quarantines).
//
// The daemon serves real HTTP over net/http; the sandboxes behind it run
// on the simulated machine, so responses carry virtual-time latencies.
// SIGINT/SIGTERM shut the daemon down gracefully: admission stops
// (health flips to draining), queued work finishes or is shed by the
// drain deadline, and the client's long-lived artifacts are released.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"catalyzer"
)

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// request whose client went away before the response.
const statusClientClosedRequest = 499

// server exposes a Client over HTTP. The Client is internally
// synchronized, so handlers need no additional locking.
type server struct {
	client *catalyzer.Client
}

// statusOf maps a client error to an HTTP status by its type: unknown
// functions are the caller's 404, unknown boot kinds the caller's 400,
// shed requests 429, drain rejections 503, expired deadlines 504,
// canceled requests 499, and everything else — including an exhausted
// recovery chain — is the server's 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, catalyzer.ErrNotRegistered):
		return http.StatusNotFound
	case errors.Is(err, catalyzer.ErrUnknownSystem):
		return http.StatusBadRequest
	case errors.Is(err, catalyzer.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, catalyzer.ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, catalyzer.ErrCrashLooping):
		// The function is parked with backoff; the condition clears on its
		// own, so it is a retryable 503, not a permanent failure.
		return http.StatusServiceUnavailable
	case errors.Is(err, catalyzer.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, catalyzer.ErrCanceled):
		return statusClientClosedRequest
	case errors.Is(err, catalyzer.ErrNotDeployed):
		// Fleet mode: the function exists but was never deployed here.
		return http.StatusNotFound
	case errors.Is(err, catalyzer.ErrNoSurvivors),
		errors.Is(err, catalyzer.ErrMachineDown),
		errors.Is(err, catalyzer.ErrMachineUnreachable),
		errors.Is(err, catalyzer.ErrMachineFlaky),
		errors.Is(err, catalyzer.ErrBrownout),
		errors.Is(err, catalyzer.ErrBudgetExhausted),
		errors.Is(err, catalyzer.ErrZoneDegraded):
		// Machine-level fleet failures are retryable: survivors heal,
		// partitions clear, crashed machines restart, ejected gray
		// members are re-admitted, downed zones rejoin as repairs drain,
		// and the retry/hedge budget refills.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// fail writes err with its mapped status; shed requests and retryable
// fleet 503s carry a Retry-After hint so well-behaved clients back off.
func fail(w http.ResponseWriter, err error) {
	code := statusOf(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), code)
}

// requestCtx derives the invocation context from the HTTP request: the
// request's own context (canceled when the client disconnects) bounded
// by an optional deadline_ms query parameter.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	v := r.URL.Query().Get("deadline_ms")
	if v == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil || ms <= 0 {
		return nil, nil, fmt.Errorf("bad deadline_ms %q", v)
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(ms*float64(time.Millisecond)))
	return ctx, cancel, nil
}

type invokeResponse struct {
	Function string             `json:"function"`
	Boot     string             `json:"boot"`
	ServedBy string             `json:"served_by"`
	BootMS   float64            `json:"boot_ms"`
	ExecMS   float64            `json:"exec_ms"`
	TotalMS  float64            `json:"total_ms"`
	PhasesMS map[string]float64 `json:"phases_ms"`
}

// invokeResponseOf is the JSON reply to one served invocation, its
// latencies in milliseconds and repeated phases summed by name.
func invokeResponseOf(inv *catalyzer.Invocation) invokeResponse {
	resp := invokeResponse{
		Function: inv.Function,
		Boot:     string(inv.Kind),
		ServedBy: string(inv.ServedBy),
		BootMS:   float64(inv.BootLatency) / 1e6,
		ExecMS:   float64(inv.ExecLatency) / 1e6,
		TotalMS:  float64(inv.Total()) / 1e6,
		PhasesMS: map[string]float64{},
	}
	for _, ph := range inv.Phases {
		resp.PhasesMS[ph.Name] += float64(ph.Duration) / 1e6
	}
	return resp
}

func (s *server) deploy(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	if fn == "" {
		http.Error(w, "missing fn parameter", http.StatusBadRequest)
		return
	}
	if err := s.client.Deploy(r.Context(), fn); err != nil {
		fail(w, err)
		return
	}
	fmt.Fprintf(w, "deployed %s\n", fn)
}

func (s *server) invoke(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	boot := r.URL.Query().Get("boot")
	if boot == "" {
		boot = string(catalyzer.ForkBoot)
	}
	if fn == "" {
		http.Error(w, "missing fn parameter", http.StatusBadRequest)
		return
	}
	ctx, cancel, err := requestCtx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	inv, err := s.client.Invoke(ctx, fn, catalyzer.BootKind(boot))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, invokeResponseOf(inv))
}

// deployCustom registers a user-defined function from the JSON workload
// document in the request body.
func (s *server) deployCustom(w http.ResponseWriter, r *http.Request) {
	doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	name, err := s.client.DeployCustom(r.Context(), doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "deployed custom function %s\n", name)
}

// train prepares a function's pre-initialized variant (§6.7).
func (s *server) train(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	if fn == "" {
		http.Error(w, "missing fn parameter", http.StatusBadRequest)
		return
	}
	fraction := 0.5
	if v := r.URL.Query().Get("fraction"); v != "" {
		var err error
		if fraction, err = strconv.ParseFloat(v, 64); err != nil {
			http.Error(w, "bad fraction", http.StatusBadRequest)
			return
		}
	}
	name, err := s.client.Train(fn, fraction)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "trained variant %s\n", name)
}

// functions lists the deployable workloads (both daemon modes).
func functions(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, catalyzer.Functions())
}

// writeJSON writes body as a JSON reply with the given status.
func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		log.Printf("encode: %v", err)
	}
}

// durationType is the type of every virtual-time field in the stats
// snapshots: simtime.Duration aliases time.Duration.
var durationType = reflect.TypeOf(time.Duration(0))

// render turns a stats snapshot into its /metrics form: a struct becomes
// an object keyed by its fields' json tags (omitempty omits an empty
// map), a Duration becomes float milliseconds, and a map of structs is
// rendered value by value; anything else is encoded as it is. Rendering
// the whole struct means a counter added to a stats type reaches
// /metrics with no second declaration.
func render(v any) any { return renderValue(reflect.ValueOf(v)) }

func renderValue(v reflect.Value) any {
	switch {
	case v.Type() == durationType:
		return float64(v.Int()) / 1e6
	case v.Kind() == reflect.Struct:
		t := v.Type()
		out := make(map[string]any, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f, fv := t.Field(i), v.Field(i)
			name, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || (opt == "omitempty" && fv.Kind() == reflect.Map && fv.Len() == 0) {
				continue
			}
			out[name] = renderValue(fv)
		}
		return out
	case v.Kind() == reflect.Map && v.Type().Elem().Kind() == reflect.Struct && !v.IsNil():
		out := make(map[string]any, v.Len())
		for it := v.MapRange(); it.Next(); {
			out[it.Key().String()] = renderValue(it.Value())
		}
		return out
	}
	return v.Interface()
}

func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"boots":     render(s.client.Stats()),
		"failures":  render(s.client.FailureStats()),
		"overload":  render(s.client.OverloadStats()),
		"supervise": render(s.client.SuperviseStats()),
	}
	if rep := s.client.RecoveryReport(); rep != nil {
		body["recovery"] = map[string]any{
			"recovered_functions": len(rep.Recovered),
			"recovered":           rep.Recovered,
			"failed":              rep.Failed,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// health reports liveness, degradation, and drain: 200 while every
// circuit breaker is closed, 503 "degraded" with the open breakers
// listed once the recovery machinery has shut a boot path off, and 503
// "draining" once shutdown has begun.
func (s *server) health(w http.ResponseWriter, _ *http.Request) {
	st := s.client.FailureStats()
	var open []string
	for k, state := range st.Breakers {
		if state != "closed" {
			open = append(open, k+"="+state)
		}
	}
	// Parked (crash-looping) functions degrade health like open breakers:
	// a boot path is shut off until the supervisor un-parks them.
	parked := make([]string, 0)
	for fn, remaining := range s.client.ParkedFunctions() {
		parked = append(parked, fmt.Sprintf("%s (%v left)", fn, remaining))
	}
	sort.Strings(parked)
	status, code := "ok", http.StatusOK
	if len(open) > 0 || len(parked) > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	if s.client.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":                status,
		"live_instances":        s.client.Running(),
		"open_breakers":         open,
		"parked_functions":      parked,
		"templates_quarantined": st.TemplatesQuarantined,
		"templates_poisoned":    st.TemplatesPoisoned,
		"watchdog_kills":        st.WatchdogKills,
		"images_quarantined":    st.ImagesQuarantined,
		"rollbacks":             st.Rollbacks,
		"exhausted_boots":       st.Exhausted,
	}
	if rep := s.client.RecoveryReport(); rep != nil {
		body["recovered_functions"] = len(rep.Recovered)
	}
	writeJSON(w, code, body)
}

func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"live_instances":   s.client.Running(),
		"virtual_clock_ms": float64(s.client.Now()) / 1e6,
	})
}

// Handler builds the HTTP mux (exported shape for tests). Method
// patterns mean a wrong-method request gets 405 with an Allow header.
func Handler(c *catalyzer.Client) http.Handler {
	s := &server{client: c}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deploy", s.deploy)
	mux.HandleFunc("POST /deploy-custom", s.deployCustom)
	mux.HandleFunc("POST /train", s.train)
	mux.HandleFunc("POST /invoke", s.invoke)
	mux.HandleFunc("GET /functions", functions)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /health", s.health)
	return mux
}

// validateFlags rejects flag combinations the daemon cannot honor. In
// particular, -store-dir is the single-machine store: in fleet mode
// each machine owns its own store under -fleet-store-dir, and silently
// accepting a -store-dir would let an operator believe one shared store
// backs the fleet when it backs nothing. The admission flags are
// rejected in fleet mode for the same reason: fleet machines do not run
// the single-machine admission controller, so the caps would be ignored.
// A negative -memory-budget or -grace is rejected rather than read as
// unlimited or as an already-expired drain deadline.
func validateFlags(zygotePool, fleetMachines, fleetZones int, storeDir, fleetStoreDir string, adm catalyzer.AdmissionConfig, memoryBudget int, grace time.Duration) error {
	if zygotePool < 0 {
		return fmt.Errorf("-zygote-pool must be >= 0, got %d", zygotePool)
	}
	if memoryBudget < 0 {
		return fmt.Errorf("-memory-budget must be >= 0 pages, got %d", memoryBudget)
	}
	if grace < 0 {
		return fmt.Errorf("-grace must be >= 0, got %v", grace)
	}
	if fleetMachines > 0 {
		for _, f := range []struct {
			name string
			v    int
		}{
			{"-max-concurrent", adm.MaxConcurrent},
			{"-max-per-function", adm.MaxPerFunction},
			{"-queue-depth", adm.QueueDepth},
		} {
			if f.v != 0 {
				return fmt.Errorf("%s is not supported in fleet mode: fleet machines do not enforce admission limits", f.name)
			}
		}
	}
	if fleetMachines > 0 && storeDir != "" {
		return fmt.Errorf("-store-dir is the single-machine store; fleet machines keep per-machine stores under -fleet-store-dir")
	}
	if fleetStoreDir != "" && fleetMachines == 0 {
		return fmt.Errorf("-fleet-store-dir requires fleet mode: set -fleet-machines > 0")
	}
	if fleetStoreDir != "" && !filepath.IsAbs(fleetStoreDir) {
		return fmt.Errorf("-fleet-store-dir must be an absolute path, got %q", fleetStoreDir)
	}
	if fleetZones < 0 {
		return fmt.Errorf("-fleet-zones must be >= 0, got %d", fleetZones)
	}
	if fleetZones > 0 && fleetMachines == 0 {
		return fmt.Errorf("-fleet-zones requires fleet mode: set -fleet-machines > 0")
	}
	if fleetZones > fleetMachines {
		return fmt.Errorf("-fleet-zones %d exceeds -fleet-machines %d: a zone needs at least one machine", fleetZones, fleetMachines)
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	server := flag.Bool("server-machine", false, "use the 96-core server cost model")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	maxConcurrent := flag.Int("max-concurrent", 0, "global in-flight invocation cap (0 = unlimited)")
	maxPerFunction := flag.Int("max-per-function", 0, "per-function in-flight invocation cap (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue depth; beyond it requests are shed with 429 (0 = shed at capacity)")
	memoryBudget := flag.Int("memory-budget", 0, "machine memory budget in pages; boots under pressure evict idle instances (0 = unlimited)")
	zygotePool := flag.Int("zygote-pool", 4, "Zygote pool target size: pre-booted sandboxes kept ready for warm boots and refilled by the supervisor (0 = disabled)")
	storeDir := flag.String("store-dir", "", "directory for the crash-consistent func-image store; deployed functions are recovered from it on restart (empty = in-memory only)")
	fleetMachines := flag.Int("fleet-machines", 0, "run a fleet of N machines behind placement/failover instead of a single machine (0 = single-machine mode)")
	fleetStoreDir := flag.String("fleet-store-dir", "", "absolute root for per-machine crash-consistent stores (m0..mN-1); a daemon restarted over the same root recovers the whole fleet from disk (empty = in-memory machines)")
	fleetReplication := flag.Int("fleet-replication", 0, "func-image replication factor in fleet mode (0 = default 2)")
	fleetZones := flag.Int("fleet-zones", 0, "failure-domain count in fleet mode: machines stripe across zones and replicas spread over distinct zones (0 = default 1, a single zone)")
	fleetRepairBudget := flag.Int("fleet-repair-budget", 0, "cap on concurrent re-replications after machine losses; excess repairs queue deterministically (0 = default 4)")
	fleetEjectFactor := flag.Float64("fleet-eject-factor", 0, "outlier-ejection threshold as a multiple of the fleet's healthy median latency score (0 = default 4)")
	fleetHedgeFactor := flag.Float64("fleet-hedge-factor", 0, "hedge delay as a multiple of the healthy median latency score; slower primaries race a second attempt (0 = default 2)")
	fleetBudgetRatio := flag.Float64("fleet-budget-ratio", 0, "retry/hedge tokens earned per admitted invocation, bounding extra attempts to roughly this fraction of traffic (0 = default 0.1)")
	fleetBudgetBurst := flag.Int("fleet-budget-burst", 0, "retry/hedge token bucket size (0 = default 32)")
	fleetMaxEjectFraction := flag.Float64("fleet-max-eject-fraction", 0, "largest share of up machines that may be soft-ejected at once; beyond it the fleet serves browned-out (0 = default 1/3)")
	flag.Parse()
	adm := catalyzer.AdmissionConfig{
		MaxConcurrent:  *maxConcurrent,
		MaxPerFunction: *maxPerFunction,
		QueueDepth:     *queueDepth,
	}
	if err := validateFlags(*zygotePool, *fleetMachines, *fleetZones, *storeDir, *fleetStoreDir, adm, *memoryBudget, *grace); err != nil {
		log.Fatal(err)
	}

	opts := []catalyzer.Option{
		catalyzer.WithAdmission(adm),
		catalyzer.WithZygotePool(*zygotePool),
	}
	if *server {
		opts = append(opts, catalyzer.WithServerMachine())
	}
	if *memoryBudget > 0 {
		opts = append(opts, catalyzer.WithMemoryBudget(*memoryBudget))
	}
	// Fleet mode swaps the single-machine client for N machines behind
	// the placement/failover control plane; the drain/close hooks below
	// abstract over the two.
	var handler http.Handler
	drain := func(context.Context) error { return nil }
	var closeFn func()
	var running func() int
	if *fleetMachines > 0 {
		f, err := catalyzer.NewFleet(catalyzer.FleetConfig{
			Machines:         *fleetMachines,
			Replication:      *fleetReplication,
			Zones:            *fleetZones,
			RepairBudget:     *fleetRepairBudget,
			EjectFactor:      *fleetEjectFactor,
			HedgeFactor:      *fleetHedgeFactor,
			BudgetRatio:      *fleetBudgetRatio,
			BudgetBurst:      *fleetBudgetBurst,
			MaxEjectFraction: *fleetMaxEjectFraction,
			StoreDir:         *fleetStoreDir,
		}, opts...)
		if err != nil {
			log.Fatalf("build fleet: %v", err)
		}
		log.Printf("fleet mode: %d machines", f.Size())
		if *fleetStoreDir != "" {
			// Rebuild the fleet's serving state from the per-machine stores:
			// functions deployed before a restart serve again without a
			// fresh /deploy.
			rep, err := f.Recover(context.Background())
			if err != nil {
				log.Fatalf("recover fleet from %s: %v", *fleetStoreDir, err)
			}
			log.Printf("recovered %d function(s) from %s: %v", len(rep.Recovered), *fleetStoreDir, rep.Recovered)
			for fn, cause := range rep.Failed {
				log.Printf("could not recover %s: %s", fn, cause)
			}
		}
		handler = FleetHandler(f)
		closeFn = f.Close
		running = f.Running
	} else {
		var c *catalyzer.Client
		if *storeDir != "" {
			var err error
			c, err = catalyzer.NewClientWithStore(*storeDir, opts...)
			if err != nil {
				log.Fatalf("open image store %s: %v", *storeDir, err)
			}
			// Rehydrate the registry from the store's manifest: functions
			// deployed before a restart serve again without a fresh /deploy.
			rep, err := c.Recover(context.Background())
			if err != nil {
				log.Fatalf("recover from image store: %v", err)
			}
			log.Printf("recovered %d function(s) from %s: %v", len(rep.Recovered), *storeDir, rep.Recovered)
			for fn, cause := range rep.Failed {
				log.Printf("could not recover %s: %s", fn, cause)
			}
		} else {
			c = catalyzer.NewClient(opts...)
		}
		handler = Handler(c)
		drain = c.Drain
		closeFn = c.Close
		running = c.Running
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Slow-client protection: a peer that trickles headers or a body,
		// or never reads its response, cannot pin a connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("catalyzerd listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (health flips to draining), give
	// queued and in-flight work the grace period to finish (stragglers in
	// the queue are shed), then stop the listener and release the
	// client's long-lived artifacts.
	log.Printf("catalyzerd draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	closeFn()
	log.Printf("catalyzerd stopped (%d live instances)", running())
}
