// Package faults is the deterministic fault-injection subsystem: a
// seedable injector that can be armed per boot phase (image load/decode,
// Base-EPT mapping, metadata fixup, I/O reconnection, sfork, Zygote
// take), plus the virtual-time circuit breaker the platform's recovery
// machinery builds on.
//
// The injector is deliberately boring: a site either fails this draw or
// it does not, decided by a seeded PRNG, so a chaos run with the same
// seed replays the same fault schedule. A nil *Injector is inert and
// free — production code calls Check unconditionally and the happy path
// pays one nil comparison.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Site identifies one injection point in the boot pipeline.
type Site string

const (
	// SiteImageLoad is the func-image fetch from the store (I/O error:
	// the bytes never arrive).
	SiteImageLoad Site = "image-load"
	// SiteImageDecode is func-image decoding (the bytes arrived but are
	// corrupt; the image must be quarantined).
	SiteImageDecode Site = "image-decode"
	// SiteEPTMap is the Base-EPT / overlay-memory mapping of the image's
	// memory section (§3.1).
	SiteEPTMap Site = "base-ept-map"
	// SiteMetaFixup is separated-state metadata recovery (§3.2).
	SiteMetaFixup Site = "metadata-fixup"
	// SiteIOReconnect is I/O connection re-establishment (§3.3).
	SiteIOReconnect Site = "io-reconnect"
	// SiteSfork is the template fork itself (§4).
	SiteSfork Site = "sfork"
	// SiteZygoteTake is taking a Zygote from the pool (a wedged cached
	// sandbox, §3.4).
	SiteZygoteTake Site = "zygote-take"

	// The next four sites model post-boot runtime failures: sandboxes
	// that stop responding after a successful boot, invocations that
	// never return, and templates whose shared state is latently bad.
	// They are drawn by the supervision layer (liveness probes, the
	// hung-invocation watchdog) and at template build time.

	// SiteSandboxWedge is drawn when a liveness probe inspects a healthy
	// instance (keep-warm, template, or pooled Zygote): firing wedges the
	// instance — it stops serving and must be evicted and regenerated.
	SiteSandboxWedge Site = "sandbox-wedge"
	// SiteInvokeHang is drawn at the start of request execution: firing
	// hangs the invocation past its deadline, leaving the watchdog to
	// kill and reap the sandbox.
	SiteInvokeHang Site = "invoke-hang"
	// SiteTemplatePoison is drawn once per template build: firing makes
	// the template latently poisoned, so every sforked child fails at
	// execution until lineage tracking convicts and quarantines the
	// template.
	SiteTemplatePoison Site = "template-poison"
	// SiteProbeFalseNegative is drawn when a probe inspects a wedged
	// instance: firing makes the probe miss the wedge (report healthy),
	// so eviction waits for a later probe round.
	SiteProbeFalseNegative Site = "probe-false-negative"

	// The remaining sites simulate a process kill at each durability
	// boundary of the on-disk image store: the step's partial effect is
	// left on disk exactly as a crash would leave it, and the store
	// returns without cleaning up. Reopening the store directory then
	// exercises journal replay + scrub, which must converge to either the
	// pre-operation or post-operation state.

	// SiteStoreWrite kills mid-write of an image's temp file (a torn
	// payload that never reached its rename).
	SiteStoreWrite Site = "store-write"
	// SiteStoreRename kills between the fsynced temp write and the
	// rename into place (an orphaned, complete temp file).
	SiteStoreRename Site = "store-rename"
	// SiteJournalAppend kills mid-append of a store journal record (a
	// torn record at the journal tail).
	SiteJournalAppend Site = "journal-append"
	// SiteManifestCompact kills after writing the new manifest's temp
	// file but before renaming it over MANIFEST.
	SiteManifestCompact Site = "manifest-compact"

	// The fleet sites model whole-machine failures, drawn by the fleet
	// control plane at dispatch and during membership probes — never by a
	// single platform. Arming them on a single-machine client is a no-op,
	// and (like every site) they draw no RNG while unarmed, so existing
	// seeded chaos schedules are unperturbed by their existence.

	// SiteMachineCrash fires a whole-machine crash: the member is marked
	// down with all its state (images, templates, live instances) lost,
	// and must be explicitly restarted to rejoin empty.
	SiteMachineCrash Site = "machine-crash"
	// SiteMachinePartition fires a transient unreachability: dispatches
	// and probes fail, and enough consecutive misses mark the member down
	// with its state intact; a later clean probe re-admits it.
	SiteMachinePartition Site = "machine-partition"
	// SiteMachineSlow fires a degraded dispatch: the target machine is
	// charged extra virtual latency but serves the request.
	SiteMachineSlow Site = "machine-slow"

	// The gray-failure sites model machines that stay nominally alive —
	// they pass membership probes and keep serving — while degrading in
	// ways only latency scoring can see. They are usually armed per
	// machine (ArmKeyed with the machine key) so one sick member poisons
	// the tail without downing the fleet.

	// SiteMachineGraySlow fires a gray-slow dispatch: the machine serves
	// the request but is charged a large extra latency (10–100× a healthy
	// boot), feeding its EWMA score. Unlike machine-slow it is meant to be
	// armed persistently on one machine to model a gray failure.
	SiteMachineGraySlow Site = "machine-gray-slow"
	// SiteMachineFlaky fires an erratic dispatch failure: the machine
	// drops this one request (typed ErrFlaky, replayed elsewhere) without
	// accruing partition misses — alive, just unreliable.
	SiteMachineFlaky Site = "machine-flaky"
	// SiteHedgeLoserLingers is drawn against the losing side of a hedged
	// invocation: firing makes the abandoned attempt linger, charging the
	// loser machine extra virtual time for work it will throw away.
	SiteHedgeLoserLingers Site = "hedge-loser-lingers"

	// The scenario sites model *correlated* failures: whole failure
	// domains dying together on a scripted timeline rather than machines
	// failing i.i.d. per draw. A Scenario arms them keyed per machine
	// (usually at rate 1) when a timeline step fires and disarms them on
	// Heal, so the outage window is a deterministic function of the
	// virtual clock, not of per-draw RNG.

	// SiteZoneDown is armed on every machine of a failed zone (power
	// loss, cooling failure): a firing draw downs the machine immediately
	// with its state intact, and the machine rejoins when the zone heals.
	SiteZoneDown Site = "zone-down"
	// SiteRollingCrash is armed one machine at a time by a rolling-crash
	// sweep (a bad config push walking the fleet): a firing draw crashes
	// the machine — state lost — and the arming is consumed (one-shot).
	SiteRollingCrash Site = "rolling-crash"
	// SitePartitionSplit is armed on the minority side of a network
	// split: dispatches and probes to those machines fail as unreachable
	// (misses accrue, state intact) until the split heals.
	SitePartitionSplit Site = "partition-split"
	// SiteRepairDeferred is drawn once per re-replication the repair
	// engine is about to execute: firing pushes the repair back onto the
	// queue, modelling contention for repair bandwidth during a mass
	// outage.
	SiteRepairDeferred Site = "repair-deferred"

	// The restart sites model whole-fleet durability failures: a fleet
	// where every machine owns a crash-consistent store must survive a
	// full power loss, so these are drawn while machines reopen their
	// stores and while the reconciliation pass converges replica sets.

	// SiteRestartTornStore is drawn once per machine (keyed by machine)
	// at the start of fleet cold-restart recovery: firing means the
	// machine's on-disk store came back unusable — torn past what the
	// scrub could repair — so its contents are ignored and every replica
	// it held must be re-pulled from surviving copies.
	SiteRestartTornStore Site = "restart-torn-store"
	// SiteRecoverStaleReplica is drawn once per stale or divergent
	// replica the reconciliation pass is about to re-pull up to the
	// winning generation: firing fails that re-pull, leaving the replica
	// set degraded for the post-recovery top-up to repair.
	SiteRecoverStaleReplica Site = "recover-stale-replica"
	// SiteImportWrite is drawn in the durable import path before a
	// pulled replica copy is saved to the importing machine's store:
	// firing fails the import *before* any bytes are written, so a crash
	// mid-pull can never acknowledge a replica that is not journaled.
	SiteImportWrite Site = "import-write"
)

// CoreSites lists the single-machine injection points: the boot pipeline
// plus the post-boot runtime failures drawn by the supervision layer.
func CoreSites() []Site {
	return []Site{SiteImageLoad, SiteImageDecode, SiteEPTMap,
		SiteMetaFixup, SiteIOReconnect, SiteSfork, SiteZygoteTake,
		SiteSandboxWedge, SiteInvokeHang, SiteTemplatePoison, SiteProbeFalseNegative}
}

// StoreSites lists the store durability crash points.
func StoreSites() []Site {
	return []Site{SiteStoreWrite, SiteStoreRename, SiteJournalAppend, SiteManifestCompact}
}

// FleetSites lists the machine-granularity fault sites drawn by the
// fleet control plane.
func FleetSites() []Site {
	return []Site{SiteMachineCrash, SiteMachinePartition, SiteMachineSlow,
		SiteMachineGraySlow, SiteMachineFlaky, SiteHedgeLoserLingers}
}

// ScenarioSites lists the correlated-failure sites armed and disarmed
// by scenario timelines rather than per-draw rates.
func ScenarioSites() []Site {
	return []Site{SiteZoneDown, SiteRollingCrash, SitePartitionSplit, SiteRepairDeferred}
}

// RestartSites lists the fleet-durability sites drawn during durable
// imports and whole-fleet cold-restart recovery.
func RestartSites() []Site {
	return []Site{SiteRestartTornStore, SiteRecoverStaleReplica, SiteImportWrite}
}

// Sites lists every injection point: the union of CoreSites, StoreSites,
// FleetSites, ScenarioSites and RestartSites.
func Sites() []Site {
	out := CoreSites()
	out = append(out, StoreSites()...)
	out = append(out, FleetSites()...)
	out = append(out, ScenarioSites()...)
	out = append(out, RestartSites()...)
	return out
}

// ValidSite reports whether s names a known injection point.
func ValidSite(s Site) bool {
	for _, k := range Sites() {
		if k == s {
			return true
		}
	}
	return false
}

// Fault is the typed error every injected failure surfaces as.
type Fault struct {
	Site Site
	Seq  int // per-site injection sequence number (1-based)
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faults: injected %s failure #%d", f.Site, f.Seq)
}

// IsFault reports whether err is (or wraps) an injected fault.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// SiteCount reports one site's draw/injection totals.
type SiteCount struct {
	Checks   int `json:"checks"`   // times the site was evaluated
	Injected int `json:"injected"` // times it failed
}

// Injector is a deterministic, seedable fault source. Arm a site with a
// failure probability and every Check at that site draws from the seeded
// PRNG. The zero probability (or an unarmed site, or a nil Injector)
// never fails.
//
// Injector is safe for concurrent use, though the simulation itself is
// single-threaded; determinism holds for any fixed sequence of Check
// calls.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rates  map[Site]float64
	keyed  map[Site]map[string]float64
	counts map[Site]*SiteCount
}

// New returns an injector whose fault schedule is fully determined by
// seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		rates:  make(map[Site]float64),
		keyed:  make(map[Site]map[string]float64),
		counts: make(map[Site]*SiteCount),
	}
}

// Arm sets a site's failure probability (clamped to [0, 1]).
func (in *Injector) Arm(site Site, rate float64) {
	if in == nil {
		return
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rates[site] = rate
}

// Disarm removes a site's arming.
func (in *Injector) Disarm(site Site) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.rates, site)
}

// ArmKeyed sets a site's failure probability for one key (clamped to
// [0, 1]). A keyed arming overrides the site-wide rate for CheckKeyed
// draws with that key; other keys keep the site-wide rate. The fleet
// uses machine keys so a gray site can be armed on a single member.
func (in *Injector) ArmKeyed(site Site, key string, rate float64) {
	if in == nil {
		return
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	m := in.keyed[site]
	if m == nil {
		m = make(map[string]float64)
		in.keyed[site] = m
	}
	m[key] = rate
}

// DisarmKeyed removes one key's arming at a site; the site-wide rate
// (if any) applies to the key again.
func (in *Injector) DisarmKeyed(site Site, key string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if m := in.keyed[site]; m != nil {
		delete(m, key)
		if len(m) == 0 {
			delete(in.keyed, site)
		}
	}
}

// DisarmAll removes every arming, keyed included; counts are retained.
func (in *Injector) DisarmAll() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rates = make(map[Site]float64)
	in.keyed = make(map[Site]map[string]float64)
}

// Check draws at the given site: it returns a *Fault if an injected
// failure fires, nil otherwise. Safe on a nil Injector.
func (in *Injector) Check(site Site) error {
	return in.CheckKeyed(site, "")
}

// CheckKeyed draws at the given site on behalf of key: a keyed arming
// for (site, key) overrides the site-wide rate. Like Check, an unarmed
// draw (no keyed rate for key and no site-wide rate) consumes no RNG,
// so arming a site on one machine never perturbs the seeded schedule of
// the others. Safe on a nil Injector.
func (in *Injector) CheckKeyed(site Site, key string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rate, armed := in.rates[site]
	if m := in.keyed[site]; m != nil {
		if kr, ok := m[key]; ok {
			rate, armed = kr, true
		}
	}
	if !armed || rate == 0 {
		return nil
	}
	c := in.counts[site]
	if c == nil {
		c = &SiteCount{}
		in.counts[site] = c
	}
	c.Checks++
	// A certain failure (rate 1) needs no randomness: skipping the draw
	// keeps a scenario's rate-1 outage window from perturbing the seeded
	// schedule of every other armed site.
	if rate < 1 && in.rng.Float64() >= rate {
		return nil
	}
	c.Injected++
	return &Fault{Site: site, Seq: c.Injected}
}

// Counts returns a copy of the per-site draw/injection totals for every
// site that has been evaluated while armed.
func (in *Injector) Counts() map[Site]SiteCount {
	out := make(map[Site]SiteCount)
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for s, c := range in.counts {
		out[s] = *c
	}
	return out
}

// Armed returns the currently armed sites (site-wide or keyed), sorted.
func (in *Injector) Armed() []Site {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	seen := make(map[Site]bool)
	for s, r := range in.rates {
		if r > 0 {
			seen[s] = true
		}
	}
	for s, m := range in.keyed {
		for _, r := range m {
			if r > 0 {
				seen[s] = true
				break
			}
		}
	}
	out := make([]Site, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
