package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"catalyzer"
)

// goldenPrefix is how many leading results of a stream the stored
// per-seed digests cover.
const goldenPrefix = 200

// goldenSeeds are the seeds whose digests are stored.
func goldenSeeds() []int64 {
	seeds := []int64{}
	for s := int64(1); s <= 10; s++ {
		seeds = append(seeds, s)
	}
	return append(seeds, heldOutSeed)
}

// golden.json holds the virtual-time results the in-process workloads
// must reproduce. Virtual time is the modelled system, so a change that
// only makes the simulator faster leaves it untouched; a recalibration of
// the cost model changes it, is recorded with --golden, and comes with an
// edit of CALIBRATION.md.
//
//go:embed golden.json
var goldenData []byte

type goldenFile struct {
	Note      string                    `json:"note"`
	Prefix    int                       `json:"prefix"`
	Workloads map[string]goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	// Virtual maps "function/kind" to the outcome of that request.
	Virtual map[string]goldenVirtual `json:"virtual"`
	// Digests maps a seed to the digest of the first Prefix results of
	// its stream.
	Digests map[string]string `json:"digests"`
}

// goldenVirtual is the outcome of one function and boot kind. BootFirst
// is the boot latency of a function's first invocation on a client, which
// for restore boots also maps the function's base memory image.
type goldenVirtual struct {
	Served    catalyzer.BootKind `json:"served"`
	BootFirst int64              `json:"boot_first_ns"`
	Boot      int64              `json:"boot_ns"`
	Exec      int64              `json:"exec_ns"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenData, &g); err != nil {
		return g, fmt.Errorf("parse golden.json: %w", err)
	}
	return g, nil
}

func vkey(fn string, kind catalyzer.BootKind) string { return fn + "/" + string(kind) }

// expectedResults maps requests to the outcomes the golden table gives.
func expectedResults(g goldenWorkload, got []virtualResult) ([]virtualResult, error) {
	seen := make(map[string]bool)
	out := make([]virtualResult, len(got))
	for i, r := range got {
		v, ok := g.Virtual[vkey(r.Fn, r.Kind)]
		if !ok {
			return nil, fmt.Errorf("golden.json has no result for %s", vkey(r.Fn, r.Kind))
		}
		boot := v.Boot
		if !seen[r.Fn] {
			boot = v.BootFirst
			seen[r.Fn] = true
		}
		out[i] = virtualResult{Fn: r.Fn, Kind: r.Kind, Served: v.Served, Boot: boot, Exec: v.Exec}
	}
	return out, nil
}

// digest hashes ordered virtual results.
func digest(rs []virtualResult) string {
	h := sha256.New()
	for _, r := range rs {
		fmt.Fprintf(h, "%s|%s|%s|%d|%d\n", r.Fn, r.Kind, r.Served, r.Boot, r.Exec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkVirtual compares a run's virtual results with the golden table,
// and its leading results with the stored digest of its seed, if any.
func checkVirtual(rep *Report, w *Workload, seed int64, got []virtualResult) {
	g, err := loadGolden()
	if err != nil {
		rep.Problem("%v", err)
		return
	}
	gw, ok := g.Workloads[w.Name]
	if !ok {
		rep.Problem("golden.json has no entry for %s", w.Name)
		return
	}
	want, err := expectedResults(gw, got)
	if err != nil {
		rep.Problem("%v", err)
		return
	}
	gotDigest := digest(got)
	if d := digest(want); d != gotDigest {
		for i := range got {
			if got[i] != want[i] {
				rep.Problem("virtual result %d differs: got %+v, want %+v", i, got[i], want[i])
				break
			}
		}
		return
	}
	rep.Note("virtual digest %s over %d results matches golden.json", gotDigest[:16], len(got))
	stored, ok := gw.Digests[strconv.FormatInt(seed, 10)]
	switch {
	case !ok:
	case len(got) < g.Prefix:
		rep.Note("seed %d: %d results, fewer than the %d the stored digest covers; checked against the table only", seed, len(got), g.Prefix)
	case digest(got[:g.Prefix]) != stored:
		rep.Problem("seed %d: digest of the first %d results differs from golden.json", seed, g.Prefix)
	default:
		rep.Note("seed %d: digest of the first %d results matches golden.json", seed, g.Prefix)
	}
}

// writeGolden records the golden table and per-seed digests of every
// in-process workload from the current code.
func writeGolden(ctx context.Context, path string) error {
	g := goldenFile{
		Note:      "Virtual-time results of the in-process workloads; regenerate with --golden only with a cost-model recalibration (CALIBRATION.md).",
		Prefix:    goldenPrefix,
		Workloads: make(map[string]goldenWorkload),
	}
	for _, w := range workloads {
		if w.Rate > 0 {
			continue
		}
		gw := goldenWorkload{Virtual: make(map[string]goldenVirtual), Digests: make(map[string]string)}
		for _, fn := range w.Fns {
			for _, kind := range w.Kinds {
				v, err := firstAndSteady(ctx, w, fn, kind)
				if err != nil {
					return err
				}
				gw.Virtual[vkey(fn, kind)] = v
			}
		}
		for _, seed := range goldenSeeds() {
			got, err := replayPrefix(ctx, w, seed, goldenPrefix)
			if err != nil {
				return err
			}
			want, err := expectedResults(gw, got)
			if err != nil {
				return err
			}
			if digest(want) != digest(got) {
				return fmt.Errorf("%s seed %d: the stream's results do not follow the per-function table", w.Name, seed)
			}
			gw.Digests[strconv.FormatInt(seed, 10)] = digest(got)
		}
		g.Workloads[w.Name] = gw
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// firstAndSteady invokes fn twice on a freshly deployed client.
func firstAndSteady(ctx context.Context, w *Workload, fn string, kind catalyzer.BootKind) (goldenVirtual, error) {
	c, _, err := deployClient(ctx, w)
	if err != nil {
		return goldenVirtual{}, err
	}
	defer c.Close()
	first, err := c.Invoke(ctx, fn, kind)
	if err != nil {
		return goldenVirtual{}, err
	}
	steady, err := c.Invoke(ctx, fn, kind)
	if err != nil {
		return goldenVirtual{}, err
	}
	if first.ServedBy != steady.ServedBy || first.ExecLatency != steady.ExecLatency {
		return goldenVirtual{}, fmt.Errorf("%s: first and second invocation differ beyond boot latency", vkey(fn, kind))
	}
	return goldenVirtual{Served: steady.ServedBy, BootFirst: int64(first.BootLatency),
		Boot: int64(steady.BootLatency), Exec: int64(steady.ExecLatency)}, nil
}

// replayPrefix runs the first n requests of a seed's stream on a freshly
// deployed client.
func replayPrefix(ctx context.Context, w *Workload, seed int64, n int) ([]virtualResult, error) {
	c, _, err := deployClient(ctx, w)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	stream := NewStream(w, seed)
	out := make([]virtualResult, 0, n)
	for i := 0; i < n; i++ {
		req := stream.Next()
		inv, err := c.Invoke(ctx, req.Fn, req.Kind)
		if err != nil {
			return nil, fmt.Errorf("invoke %s: %w", vkey(req.Fn, req.Kind), err)
		}
		out = append(out, virtualResult{Fn: req.Fn, Kind: req.Kind, Served: inv.ServedBy,
			Boot: int64(inv.BootLatency), Exec: int64(inv.ExecLatency)})
	}
	return out, nil
}
