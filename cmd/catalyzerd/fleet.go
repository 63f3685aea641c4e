package main

import (
	"fmt"
	"net/http"
	"strconv"

	"catalyzer"
)

// fleetServer exposes a Fleet over HTTP. Like the single-machine
// server, the Fleet is internally synchronized, so handlers need no
// additional locking.
type fleetServer struct {
	fleet *catalyzer.Fleet
}

// fleetInvokeResponse extends the invoke response with the index of the
// machine that served the request after placement and failover.
type fleetInvokeResponse struct {
	invokeResponse
	Machine int `json:"machine"`
}

func (s *fleetServer) deploy(w http.ResponseWriter, r *http.Request) {
	fn := r.URL.Query().Get("fn")
	if fn == "" {
		http.Error(w, "missing fn parameter", http.StatusBadRequest)
		return
	}
	if err := s.fleet.Deploy(r.Context(), fn); err != nil {
		fail(w, err)
		return
	}
	fmt.Fprintf(w, "deployed %s to machines %v\n", fn, s.fleet.Replicas(fn))
}

func (s *fleetServer) invoke(w http.ResponseWriter, r *http.Request) {
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
	inv, err := s.fleet.Invoke(ctx, fn, catalyzer.BootKind(boot))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, fleetInvokeResponse{invokeResponse: invokeResponseOf(inv), Machine: inv.Machine})
}

// machineIdx parses the required idx query parameter.
func machineIdx(r *http.Request) (int, error) {
	v := r.URL.Query().Get("idx")
	if v == "" {
		return 0, fmt.Errorf("missing idx parameter")
	}
	idx, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad idx %q", v)
	}
	return idx, nil
}

// kill crashes a machine (chaos hook): state lost, functions re-place
// and re-replicate onto survivors.
func (s *fleetServer) kill(w http.ResponseWriter, r *http.Request) {
	idx, err := machineIdx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.fleet.KillMachine(idx); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "killed machine %d\n", idx)
}

// restart re-admits a down machine (a crashed one comes back empty and
// is re-replicated onto; a partitioned one rejoins with state intact).
func (s *fleetServer) restart(w http.ResponseWriter, r *http.Request) {
	idx, err := machineIdx(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.fleet.RestartMachine(idx); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "restarted machine %d\n", idx)
}

// machines lists the membership view.
func (s *fleetServer) machines(w http.ResponseWriter, _ *http.Request) {
	type machineJSON struct {
		Index   int     `json:"index"`
		Zone    string  `json:"zone"`
		State   string  `json:"state"`
		Crashed bool    `json:"crashed"`
		Epoch   int     `json:"epoch"`
		Live    int     `json:"live_instances"`
		ClockMS float64 `json:"virtual_clock_ms"`
		Ejected bool    `json:"ejected"`
		ScoreMS float64 `json:"score_ms"`
		Samples int     `json:"score_samples"`
	}
	out := make([]machineJSON, 0, s.fleet.Size())
	for _, m := range s.fleet.Machines() {
		out = append(out, machineJSON{
			Index:   m.Index,
			Zone:    m.Zone,
			State:   m.State,
			Crashed: m.Crashed,
			Epoch:   m.Epoch,
			Live:    m.Live,
			ClockMS: float64(m.Clock) / 1e6,
			Ejected: m.Ejected,
			ScoreMS: float64(m.Score) / 1e6,
			Samples: m.Samples,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *fleetServer) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"machines":         s.fleet.Size(),
		"live_instances":   s.fleet.Running(),
		"deployed":         s.fleet.Deployed(),
		"virtual_clock_ms": float64(s.fleet.Now()) / 1e6,
	})
}

func (s *fleetServer) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"boots": render(s.fleet.Stats()),
		"fleet": render(s.fleet.FleetStats()),
	})
}

// health reports fleet liveness: 200 "ok" with every machine up, 503
// "degraded" with the down machine indices listed otherwise, so an
// orchestrator can page on partial fleet loss before functions do.
// Soft-ejected (gray) machines are listed separately and downgrade the
// status to 200 "brownout" — capacity is reduced but the fleet still
// serves, and the ejection probes re-admit members as they recover.
func (s *fleetServer) health(w http.ResponseWriter, _ *http.Request) {
	down := make([]int, 0)
	ejected := make([]int, 0)
	zoneUp := map[string]int{}
	zoneDown := map[string]int{}
	for _, m := range s.fleet.Machines() {
		if m.State != "up" {
			down = append(down, m.Index)
			zoneDown[m.Zone]++
		} else {
			zoneUp[m.Zone]++
			if m.Ejected {
				ejected = append(ejected, m.Index)
			}
		}
	}
	// Per-zone membership summary, in zone index order: an orchestrator
	// can tell a correlated whole-zone outage from scattered machine
	// loss at a glance.
	type zoneJSON struct {
		Zone string `json:"zone"`
		Up   int    `json:"up"`
		Down int    `json:"down"`
	}
	zones := make([]zoneJSON, 0)
	for _, z := range s.fleet.ZoneNames() {
		zones = append(zones, zoneJSON{Zone: z, Up: zoneUp[z], Down: zoneDown[z]})
	}
	status, code := "ok", http.StatusOK
	if len(ejected) > 0 {
		status = "brownout"
	}
	if len(down) > 0 {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	st := s.fleet.FleetStats()
	body := map[string]any{
		"status":           status,
		"machines":         st.Machines,
		"up":               st.Up,
		"down_machines":    down,
		"ejected_machines": ejected,
		"zones":            zones,
		"zones_down":       st.ZonesDown,
		"live_instances":   s.fleet.Running(),
		"replicas_lost":    st.ReplicasLost,
		"crashes":          st.Crashes,
		"rejoins":          st.Rejoins,
		// Restart-recovery outcome: how much the per-machine stores brought
		// back at the last fleet cold start, and what was torn or failed.
		"functions_recovered": st.FunctionsRecovered,
		"stores_recovered":    st.StoresRecovered,
		"torn_stores":         st.TornStores,
		"recover_failures":    st.RecoverFailures,
	}
	writeJSON(w, code, body)
}

// FleetHandler builds the fleet-mode HTTP mux (exported shape for
// tests, like Handler). Machine kill/restart are chaos hooks mirroring
// Fleet.KillMachine/RestartMachine.
func FleetHandler(f *catalyzer.Fleet) http.Handler {
	s := &fleetServer{fleet: f}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /deploy", s.deploy)
	mux.HandleFunc("POST /invoke", s.invoke)
	mux.HandleFunc("POST /machines/kill", s.kill)
	mux.HandleFunc("POST /machines/restart", s.restart)
	mux.HandleFunc("GET /machines", s.machines)
	mux.HandleFunc("GET /functions", functions)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /health", s.health)
	return mux
}
