package catalyzer

import (
	"context"
	"errors"
	"fmt"

	"catalyzer/internal/admission"
	"catalyzer/internal/costmodel"
	"catalyzer/internal/faults"
	"catalyzer/internal/image"
	"catalyzer/internal/platform"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/supervise"
	"catalyzer/internal/workload"
)

// Typed errors, re-exported so callers branch with errors.Is/As instead
// of matching message text.
var (
	// ErrNotRegistered: the function is unknown (never deployed).
	ErrNotRegistered = platform.ErrNotRegistered
	// ErrNoImage: the boot strategy needs a func-image that has not been
	// prepared.
	ErrNoImage = platform.ErrNoImage
	// ErrNoTemplate: fork boot needs a template sandbox that has not been
	// prepared.
	ErrNoTemplate = platform.ErrNoTemplate
	// ErrUnknownSystem: the requested boot strategy does not exist.
	ErrUnknownSystem = platform.ErrUnknownSystem
	// ErrAlreadyRegistered: DeployCustom hit a name collision.
	ErrAlreadyRegistered = workload.ErrAlreadyRegistered
	// ErrCorruptImage: a stored func-image failed verification (it is
	// quarantined and rebuilt automatically; the sentinel surfaces in
	// wrapped causes).
	ErrCorruptImage = image.ErrCorrupt

	// ErrOverloaded: the request was shed — the admission concurrency
	// caps and queue (WithAdmission) are full, or the drain deadline
	// expired with the request still queued.
	ErrOverloaded = admission.ErrOverloaded
	// ErrDraining: the client is draining and admits nothing new.
	ErrDraining = admission.ErrDraining
	// ErrDeadlineExceeded: the request's context deadline expired —
	// before admission, while queued, or mid-boot between fallback
	// stages. errors.Is also matches context.DeadlineExceeded.
	ErrDeadlineExceeded = admission.ErrDeadlineExceeded
	// ErrCanceled: the request's context was canceled.
	ErrCanceled = admission.ErrCanceled
	// ErrOutOfMemory: a boot did not fit the memory budget even after
	// reclaim (keep-warm eviction, idle-template retirement).
	ErrOutOfMemory = sandbox.ErrOutOfMemory

	// ErrWedged: the instance stopped responding after boot (a liveness
	// probe or an execution found it wedged); the supervisor reaped it.
	ErrWedged = sandbox.ErrWedged
	// ErrPoisoned: the instance inherited latently bad state from its
	// sfork template. Correlated ErrPoisoned failures across one
	// template's children raise the poisoning verdict: the template is
	// quarantined and rebuilt asynchronously while fork boots degrade
	// through the fallback chain.
	ErrPoisoned = sandbox.ErrPoisoned
	// ErrInvocationHung: the execution never returned and the watchdog
	// killed the instance after its kill budget (WatchdogMultiple × the
	// expected execution cost) of virtual time. The admission slot is
	// released.
	ErrInvocationHung = platform.ErrInvocationHung
	// ErrCrashLooping: the function failed too often inside the sliding
	// crash-loop window and is parked with exponential backoff; boots are
	// refused until the park expires.
	ErrCrashLooping = supervise.ErrCrashLooping

	// ErrUnknownFaultSite: ArmFault was given a site name not in
	// FaultSites.
	ErrUnknownFaultSite = errors.New("catalyzer: unknown fault site")
)

// BootError is the typed error Invoke returns when a whole fallback
// chain is exhausted; errors.As(err, &be) recovers the per-stage
// attempts.
type BootError = platform.BootError

// RecoveryConfig tunes the client's failure-recovery machinery; see
// DefaultRecoveryConfig for the defaults.
type RecoveryConfig = platform.RecoveryConfig

// DefaultRecoveryConfig returns the recovery defaults: one retry with
// 200µs base backoff, breakers opening after 3 consecutive failures with
// a 50ms virtual-time cooldown, template quarantine after 3 consecutive
// sfork failures.
func DefaultRecoveryConfig() RecoveryConfig { return platform.DefaultRecoveryConfig() }

// FaultSites lists the fault-injection site names accepted by ArmFault:
// the boot-pipeline sites (image-load, image-decode, base-ept-map,
// metadata-fixup, io-reconnect, sfork, zygote-take), the post-boot
// runtime sites (sandbox-wedge, invoke-hang, template-poison,
// probe-false-negative), and the image store's durability crash points
// (store-write, store-rename, journal-append, manifest-compact), which
// simulate a kill at each point a Save could be interrupted, and the
// machine-granularity fleet sites (machine-crash, machine-partition,
// machine-slow, machine-gray-slow, machine-flaky, hedge-loser-lingers),
// drawn only by a Fleet's control plane — arming them on a
// single-machine client is a no-op. The gray sites are usually armed on
// a single member via Fleet.ArmMachineFault. The fleet-durability sites
// (restart-torn-store, recover-stale-replica, import-write) cover the
// whole-fleet cold-restart path and durable replica pulls:
// restart-torn-store discards one machine's store at Fleet.Recover,
// recover-stale-replica fails one replica's restoration, and
// import-write kills a replica pull before its store save — all three
// are usually armed per machine via ArmMachineFault.
func FaultSites() []string {
	sites := faults.Sites()
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = string(s)
	}
	return out
}

// WithFaultSeed installs a deterministic fault injector on the client's
// machine. The seed fully determines the fault schedule: two clients
// with the same seed, the same armings, and the same call sequence see
// identical failures. Without this option ArmFault installs a seed-0
// injector on first use.
func WithFaultSeed(seed int64) Option {
	return func(c *config) {
		s := seed
		c.faultSeed = &s
	}
}

// NewClientWithStore creates a client whose func-images persist in an
// on-disk store rooted at dir: Deploy loads an existing image instead of
// re-running offline initialization, and saves freshly built images.
// Corrupt stored images are quarantined (renamed aside for post-mortem)
// and rebuilt, never silently reused.
func NewClientWithStore(dir string, opts ...Option) (*Client, error) {
	cfg := config{cost: costmodel.Default()}
	for _, o := range opts {
		o(&cfg)
	}
	store, err := image.NewStore(dir)
	if err != nil {
		return nil, err
	}
	c := newClient(cfg)
	p, err := platform.NewWithStoreConfig(cfg.cost, store, platformConfig(cfg))
	if err != nil {
		return nil, err
	}
	c.p = p
	if cfg.faultSeed != nil {
		c.p.InstallFaults(faults.New(*cfg.faultSeed))
	}
	if cfg.memPages > 0 {
		c.p.SetMemoryBudget(cfg.memPages)
	}
	return c, nil
}

// RecoveryReport summarizes one Recover pass: which stored functions
// were rehydrated from the image store and which could not be.
type RecoveryReport struct {
	// Recovered lists the functions re-deployed from their stored
	// func-images, sorted by name.
	Recovered []string
	// Failed maps function names that could not be rehydrated — for
	// example trained variants, whose base workload must be re-Trained —
	// to the formatted failure. Per-function failures never abort the
	// rest of the pass.
	Failed map[string]string
}

// Recover rehydrates the client's function registry from the on-disk
// image store (NewClientWithStore): every function with a live stored
// image is re-deployed, loading its func-image instead of re-running
// offline initialization, so a restarted daemon serves previously
// deployed functions without a fresh Deploy. Functions that cannot be
// rehydrated are reported in the RecoveryReport, not fatal; a client
// without a store recovers nothing. The report is cached for
// RecoveryReport. ctx bounds the whole pass.
func (c *Client) Recover(ctx context.Context) (*RecoveryReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	names, err := c.p.StoredFunctions()
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{Failed: make(map[string]string)}
	for _, name := range names {
		if err := c.Deploy(ctx, name); err != nil {
			if admission.CtxErr(ctx) != nil {
				return nil, err // the caller's deadline, not a per-function failure
			}
			rep.Failed[name] = err.Error()
			continue
		}
		rep.Recovered = append(rep.Recovered, name)
	}
	c.recMu.Lock()
	c.lastRecovery = rep
	c.recMu.Unlock()
	return rep, nil
}

// RecoveryReport returns the report of the most recent Recover pass, or
// nil if Recover has not run.
func (c *Client) RecoveryReport() *RecoveryReport {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	return c.lastRecovery
}

// ArmFault arms a fault-injection site with a failure probability in
// [0, 1]; every pass through that boot phase then fails with the given
// probability, drawn from the client's seeded schedule. Unknown site
// names are rejected (see FaultSites).
func (c *Client) ArmFault(site string, rate float64) error {
	if !faults.ValidSite(faults.Site(site)) {
		return fmt.Errorf("%w: %q (known: %v)", ErrUnknownFaultSite, site, FaultSites())
	}
	c.p.ArmFault(faults.Site(site), rate)
	return nil
}

// DisarmFaults disarms every fault site; injection counts are retained
// for FailureStats.
func (c *Client) DisarmFaults() { c.p.DisarmFaults() }

// SetRecoveryConfig replaces the recovery tuning (retries, breakers,
// quarantine thresholds). Existing breaker state is reset.
func (c *Client) SetRecoveryConfig(cfg RecoveryConfig) { c.p.SetRecoveryConfig(cfg) }

// FaultCount reports one injection site's draw/injection totals.
type FaultCount = faults.SiteCount

// FailureStats is everything the failure machinery did on behalf of
// traffic: raw stage failures and fallbacks keyed by system name,
// retries and their virtual-time backoff, circuit-breaker activity and
// states, template and image quarantines, the image store's scrub
// counters, memory-pressure reclaims, and injected-fault totals keyed by
// site. See the field comments of the aliased type.
type FailureStats = platform.FailureStats

// FailureStats returns a snapshot of the client's failure-recovery
// accounting.
func (c *Client) FailureStats() FailureStats { return c.p.FailureStats() }

// SuperviseConfig tunes the client's runtime supervision layer: the
// virtual-time liveness-probe cadence over keep-warm instances,
// template sandboxes and pooled Zygotes; the hung-invocation watchdog
// multiple; the sfork lineage poisoning verdict threshold; and
// crash-loop parking. See DefaultSuperviseConfig for the defaults.
type SuperviseConfig = supervise.Config

// DefaultSuperviseConfig returns the supervision defaults: 100ms probe
// cadence, watchdog kill at 8× the expected execution cost, poisoning
// verdict at 3 distinct failed children, crash-loop parking at 5
// failures inside a 1s window with 100ms..10s exponential backoff.
func DefaultSuperviseConfig() SuperviseConfig { return supervise.DefaultConfig() }

// SuperviseStats is a snapshot of the client's runtime supervision
// accounting: probes run, wedged instances evicted, and crash-loop
// parking.
type SuperviseStats = supervise.Stats

// SuperviseStats returns a snapshot of the client's runtime supervision
// accounting.
func (c *Client) SuperviseStats() SuperviseStats { return c.p.SuperviseStats() }

// ParkedFunctions lists crash-looping functions currently parked, with
// the remaining virtual park time of each.
func (c *Client) ParkedFunctions() map[string]Duration { return c.p.ParkedFunctions() }

// WaitSupervision blocks until the supervisor's in-flight probes and
// tracked self-healing tasks (template regenerations, Zygote pool
// refills) have finished — the test hook for asserting convergence
// after injected runtime failures.
func (c *Client) WaitSupervision() { c.p.WaitSupervise() }

// Refresh discards a deployed function's in-memory func-image and
// re-prepares it, re-exercising the store load path (including
// quarantine-and-rebuild of corrupt stored images). The template sandbox
// is untouched. Refresh write-locks the function: concurrent invocations
// of the same function wait out the artifact swap, other functions are
// unaffected.
func (c *Client) Refresh(name string) error {
	l := c.fnLock(name)
	l.Lock()
	defer l.Unlock()
	//lint:allow lockdiscipline no-machine-work-under-lock waived: write-held fn lock is the documented artifact-swap exclusion; the reclaim path takes no fn locks
	_, err := c.p.RefreshImage(name)
	return err
}

// Close releases the client's long-lived per-function artifacts (template
// sandboxes, base memory mappings). Deployed functions stay registered;
// re-deploying rebuilds the artifacts. After Close and the release of any
// kept instances, Running reports zero.
func (c *Client) Close() { c.p.Close() }
