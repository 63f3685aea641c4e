package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"catalyzer"
	"catalyzer/internal/admission"
	"catalyzer/internal/core"
	"catalyzer/internal/costmodel"
	"catalyzer/internal/image"
	"catalyzer/internal/memory"
	"catalyzer/internal/platform"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/serial"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

// kindSystem maps the public boot kinds the workloads use to the
// platform's systems.
var kindSystem = map[catalyzer.BootKind]platform.System{
	catalyzer.ForkBoot: platform.CatalyzerSfork,
	catalyzer.WarmBoot: platform.CatalyzerZygote,
	catalyzer.ColdBoot: platform.CatalyzerRestore,
}

// layers holds one instance of every layer the traced run calls, each
// built the way the repository's ablation benchmarks build them. None of
// them is the system an untraced run measures.
type layers struct {
	w      *Workload
	adm    *admission.Controller
	client *catalyzer.Client
	fleet  *catalyzer.Fleet
	daemon *daemon
	plat   *platform.Platform

	m       *sandbox.Machine // machine of the core-layer templates and restores
	vm      *sandbox.Machine // scratch machine for vfs reconnection replays
	cat     *core.Catalyzer
	tmpl    map[string]*core.Template
	img     map[string]*image.Image
	fs      map[string]*vfs.FSServer
	mapping map[string]*image.Mapping

	// counts accumulated over the traced requests
	forks, pagesCloned, cowFaults  int
	decodes, records, decodeAllocs int
	reconnects, conns              int
}

// rootFS is the function's root filesystem as the ablation benchmarks
// build it.
func rootFS(spec *workload.Spec) *vfs.FSServer {
	root := vfs.NewTree()
	root.Add("/app/wrapper", vfs.File{Size: int64(spec.TaskImagePages) * 4096})
	for _, c := range spec.Conns {
		root.Add(c.Path, vfs.File{Size: 4096})
	}
	return vfs.NewFSServer(root)
}

// buildImage boots the function cold on a machine of its own and
// captures its func-image, as the ablation benchmarks do.
func buildImage(spec *workload.Spec) (*image.Image, error) {
	m := sandbox.NewMachine(costmodel.Default())
	s, _, err := sandbox.BootCold(m, spec, rootFS(spec), sandbox.GVisorOptions(m))
	if err != nil {
		return nil, err
	}
	defer s.Release()
	img, err := s.BuildImage()
	if err != nil {
		return nil, err
	}
	if _, err := s.Execute(); err != nil {
		return nil, err
	}
	if s.Cache.Len() > 0 {
		img.IOCache = s.Cache
	}
	return img, nil
}

// newLayers builds and deploys every layer object of w.
func newLayers(ctx context.Context, w *Workload, o options) (*layers, error) {
	l := &layers{
		w:       w,
		m:       sandbox.NewMachine(costmodel.Default()),
		vm:      sandbox.NewMachine(costmodel.Default()),
		tmpl:    make(map[string]*core.Template),
		img:     make(map[string]*image.Image),
		fs:      make(map[string]*vfs.FSServer),
		mapping: make(map[string]*image.Mapping),
	}
	l.cat = core.New(l.m)
	var err error
	if l.plat, err = platform.NewWithConfig(costmodel.Default(), platform.DefaultConfig()); err != nil {
		return nil, err
	}
	for _, fn := range w.Fns {
		spec, err := workload.Registry(fn)
		if err != nil {
			return nil, err
		}
		l.fs[fn] = rootFS(spec)
		if slices.Contains(w.Kinds, catalyzer.ForkBoot) {
			if l.tmpl[fn], err = l.cat.MakeTemplate(spec, l.fs[fn]); err != nil {
				return nil, fmt.Errorf("template %s: %w", fn, err)
			}
		} else if l.img[fn], err = buildImage(spec); err != nil {
			return nil, fmt.Errorf("image %s: %w", fn, err)
		}
		if _, err := l.plat.PrepareTemplate(fn); err != nil {
			return nil, fmt.Errorf("platform deploy %s: %w", fn, err)
		}
	}
	if w.Rate > 0 {
		if l.fleet, err = newFleet(); err != nil {
			return nil, err
		}
		for _, fn := range w.Fns {
			if err := l.fleet.Deploy(ctx, fn); err != nil {
				return nil, fmt.Errorf("fleet deploy %s: %w", fn, err)
			}
		}
		if l.daemon, err = startDaemon(ctx, o.daemon, filepath.Join(o.out, fmt.Sprintf("%s-seed%d-traced-daemon.log", w.Name, o.seed))); err != nil {
			return nil, err
		}
		for _, fn := range w.Fns {
			if err := l.daemon.deploy(ctx, fn); err != nil {
				l.daemon.stop()
				return nil, err
			}
		}
		return l, nil
	}
	l.adm = admission.New(admission.Config{})
	if l.client, _, err = deployClient(ctx, w); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *layers) close() {
	if l.daemon != nil {
		l.daemon.stop()
	}
	if l.fleet != nil {
		l.fleet.Close()
	}
	if l.client != nil {
		l.client.Close()
	}
	l.plat.Close()
	for _, t := range l.tmpl {
		t.Retire()
	}
}

// request traces one request of the stream. Its top-level call is
// Client.Invoke, or for fleet-http the daemon's POST /invoke; the layers
// beneath are replayed on their own objects.
func (l *layers) request(ctx context.Context, tr *Tracer, id int, r Request) error {
	if l.daemon != nil {
		return l.fleetRequest(ctx, tr, id, r)
	}
	// A request's top-level spans have no parent; they share its id.
	sp := tr.Begin(id, 0, "admission.acquire")
	release, err := l.adm.Acquire(ctx, r.Fn)
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("admission: %w", err)
	}
	release()
	top := tr.Begin(id, 0, "catalyzer.invoke")
	_, err = l.client.Invoke(ctx, r.Fn, r.Kind)
	tr.End(top)
	if err != nil {
		return fmt.Errorf("client invoke: %w", err)
	}
	if err := l.platformLayers(ctx, tr, id, top, r); err != nil {
		return err
	}
	if id%scrapeEvery == 0 {
		sp := tr.Begin(id, 0, "catalyzer.stats")
		scrapeClient(l.client)
		tr.End(sp)
	}
	return nil
}

// fleetRequest traces one fleet-http request: the daemon's invoke, the
// in-process Fleet.Invoke of the same request beneath it, and the
// platform layers beneath that.
func (l *layers) fleetRequest(ctx context.Context, tr *Tracer, id int, r Request) error {
	top := tr.Begin(id, 0, "catalyzerd.invoke")
	_, err := l.daemon.invoke(ctx, r.Fn, r.Kind)
	tr.End(top)
	if err != nil {
		return fmt.Errorf("daemon invoke: %w", err)
	}
	fi := tr.BeginReplay(id, top, "fleet.invoke")
	_, err = l.fleet.Invoke(ctx, r.Fn, r.Kind)
	tr.End(fi)
	if err != nil {
		return fmt.Errorf("fleet invoke: %w", err)
	}
	if err := l.platformLayers(ctx, tr, id, fi, r); err != nil {
		return err
	}
	if id%scrapeEvery == 0 {
		sp := tr.Begin(id, 0, "catalyzerd.metrics")
		code, _, err := l.daemon.get(ctx, "/metrics")
		tr.End(sp)
		if err != nil || code != 200 {
			return fmt.Errorf("GET /metrics: status %d, %v", code, err)
		}
		st := tr.BeginReplay(id, sp, "catalyzer.stats")
		_ = l.fleet.FleetStats()
		_ = l.fleet.Stats()
		tr.End(st)
	}
	return nil
}

// platformLayers replays the request beneath parent: the platform's
// recovered invoke, then the boot, execution and release of the core
// layer with the memory, serial and vfs calls those make.
func (l *layers) platformLayers(ctx context.Context, tr *Tracer, id, parent int, r Request) error {
	p := tr.BeginReplay(id, parent, "platform.invoke_recover")
	_, err := l.plat.InvokeRecover(ctx, r.Fn, kindSystem[r.Kind])
	tr.End(p)
	if err != nil {
		return fmt.Errorf("platform invoke: %w", err)
	}

	var s *sandbox.Sandbox
	var clone *memory.AddressSpace
	if r.Kind == catalyzer.ForkBoot {
		tmpl := l.tmpl[r.Fn]
		b := tr.BeginReplay(id, p, "core.sfork")
		s, _, err = tmpl.Sfork()
		tr.End(b)
		if err != nil {
			return fmt.Errorf("sfork: %w", err)
		}
		sp := tr.BeginReplay(id, b, "memory.clone_cow")
		clone = tmpl.Sandbox().AS.CloneCoW()
		tr.End(sp)
		l.forks++
		l.pagesCloned += clone.MappedPages()
	} else {
		if s, err = l.restore(tr, id, p, r); err != nil {
			return err
		}
	}

	e := tr.BeginReplay(id, p, "sandbox.execute")
	_, execErr := s.Execute()
	tr.End(e)
	if clone != nil {
		l.cowFaults += s.AS.Stats().CoWFaults
	}
	rel := tr.BeginReplay(id, p, "sandbox.release")
	s.Release()
	tr.End(rel)
	if clone != nil {
		sp := tr.BeginReplay(id, rel, "memory.release")
		clone.Release()
		tr.End(sp)
	}
	if execErr != nil {
		return fmt.Errorf("execute: %w", execErr)
	}
	return nil
}

// restore replays a warm or cold Catalyzer boot beneath parent, with the
// record fixup and decode and the connection reconnection it performs.
func (l *layers) restore(tr *Tracer, id, parent int, r Request) (*sandbox.Sandbox, error) {
	img := l.img[r.Fn]
	var z *core.Zygote
	if r.Kind == catalyzer.WarmBoot {
		z = l.cat.NewZygote()
	}
	b := tr.BeginReplay(id, parent, "core.restore")
	s, mp, _, err := l.cat.BootRestore(img, l.fs[r.Fn], z, l.mapping[r.Fn], img.IOCache, core.AllFlags())
	tr.End(b)
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	l.mapping[r.Fn] = mp

	rec := &serial.Records{
		Region:    append([]byte(nil), img.Kernel.Records.Region...),
		Relations: img.Kernel.Records.Relations,
		Index:     img.Kernel.Records.Index,
	}
	sp := tr.BeginReplay(id, b, "serial.fixup_records")
	_, err = serial.FixupRecords(rec)
	tr.End(sp)
	if err != nil {
		return nil, fmt.Errorf("fixup: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.BeginReplay(id, b, "serial.decode_records")
	objs, err := serial.DecodeRecords(rec)
	tr.End(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	l.decodes++
	l.records += len(objs)
	l.decodeAllocs += int(after.Mallocs - before.Mallocs)

	sp = tr.BeginReplay(id, b, "vfs.reconnect")
	ct := vfs.RestoreWithCache(l.vm.Env, img.Kernel.ConnRecords, img.IOCache)
	tr.End(sp)
	l.reconnects++
	l.conns += ct.Len()
	return s, nil
}

// runTraced is the traced run: half of the time measures the workload
// untraced and checks its results, the other half replays the same
// seeded stream through every layer with spans.
func runTraced(ctx context.Context, w *Workload, o options) (*Report, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	rep := newReport()
	// The traced half sends each request when the previous one is done,
	// so the untraced fleet-http baseline is a closed loop on one
	// connection over the same stream.
	var untraced *Report
	var lat []float64
	var err error
	if w.Rate > 0 {
		untraced, lat, err = runOpenLoop(ctx, w, o, half, 1, loopShape{conns: 1})
	} else {
		untraced, lat, err = runClosedLoop(ctx, w, o.seed, half, 1)
	}
	if err != nil {
		return nil, err
	}
	rep.Problems = append(rep.Problems, untraced.Problems...)
	if untraced.Failed > 0 {
		rep.Problem("%d of %d untraced invocations failed", untraced.Failed, untraced.Attempted)
	}
	base := Median(lat)
	runtime.GC()
	l, err := newLayers(ctx, w, o)
	if err != nil {
		return nil, err
	}
	defer l.close()

	tr := NewTracer()
	stream := NewStream(w, o.seed)
	start := time.Now()
	for time.Since(start) < half {
		rep.Attempted++
		if err := l.request(ctx, tr, rep.Attempted, stream.Next()); err != nil {
			rep.Failed++
			rep.Note("request %d: %v", rep.Attempted, err)
		}
	}
	spans := tr.Spans()
	self := MeanSelf(spans)
	l.layerValues(rep, self)

	top := "catalyzer.invoke"
	if l.daemon != nil {
		top = "catalyzerd.invoke"
	}
	var topDur []float64
	for _, s := range spans {
		if s.Name == top {
			topDur = append(topDur, float64(s.Dur())/1e6)
		}
	}
	traced := Median(topDur)
	rep.Values["trace.overhead_pct"] = 100 * (traced - base) / base
	rep.Values["trace.requests"] = float64(rep.Attempted)
	rep.Note("tracing overhead: %s median %.4f ms traced vs %.4f ms untraced", top, traced, base)

	if err := writeTrace(o, w, spans, self, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// layerValues sets the per-layer metrics from the mean self times and the
// counters the replay accumulated.
func (l *layers) layerValues(rep *Report, self map[string]float64) {
	us := map[string]string{
		"memory.clone_cow_us":          "memory.clone_cow",
		"memory.release_us":            "memory.release",
		"sandbox.execute_us":           "sandbox.execute",
		"sandbox.release_us":           "sandbox.release",
		"core.sfork_us":                "core.sfork",
		"core.restore_us":              "core.restore",
		"serial.decode_records_us":     "serial.decode_records",
		"serial.fixup_records_us":      "serial.fixup_records",
		"vfs.reconnect_us":             "vfs.reconnect",
		"platform.invoke_recover_us":   "platform.invoke_recover",
		"admission.acquire_us":         "admission.acquire",
		"catalyzer.invoke_overhead_us": "catalyzer.invoke",
		"catalyzer.stats_us":           "catalyzer.stats",
		"fleet.dispatch_us":            "fleet.invoke",
		"catalyzerd.http_overhead_us":  "catalyzerd.invoke",
		"catalyzerd.metrics_us":        "catalyzerd.metrics",
	}
	for metric, span := range us {
		rep.Values[metric] = self[span] // 0 for a layer the workload does not call
	}
	per := func(n, d int) float64 { return float64(n) / float64(max(d, 1)) }
	rep.Values["memory.pages_cloned"] = per(l.pagesCloned, l.forks)
	rep.Values["memory.cow_faults"] = per(l.cowFaults, l.forks)
	rep.Values["memory.frames_live"] = float64(l.m.Frames.Live())
	rep.Values["serial.records"] = per(l.records, l.decodes)
	rep.Values["serial.allocs_per_decode"] = per(l.decodeAllocs, l.decodes)
	rep.Values["vfs.conns"] = per(l.conns, l.reconnects)

	fs := l.plat.FailureStats()
	fallbacks := 0
	for _, n := range fs.Fallbacks {
		fallbacks += n
	}
	rep.Values["platform.fallbacks"] = float64(fallbacks)
	rep.Values["platform.retries"] = float64(fs.Retries)
	if l.adm != nil {
		rep.Values["admission.queue_peak"] = float64(l.adm.Snapshot().QueuePeak)
	} else {
		rep.Values["admission.queue_peak"] = 0
	}
	var st catalyzer.FleetStats
	if l.fleet != nil {
		st = l.fleet.FleetStats()
	}
	rep.Values["fleet.spills"] = float64(st.Spills)
	rep.Values["fleet.template_forks"] = float64(st.TemplateForks)
	rep.Values["fleet.image_pulls"] = float64(st.ImagePulls)
	rep.Values["fleet.failovers"] = float64(st.Failovers)
}

// layerSummary is one line of the per-layer summary file.
type layerSummary struct {
	Calls    int     `json:"calls"`
	MeanUS   float64 `json:"mean_us"`
	MeanSelf float64 `json:"mean_self_us"`
}

// writeTrace writes the spans file and the per-layer self-time summary of
// a traced run, and notes the summary.
func writeTrace(o options, w *Workload, spans []Span, self map[string]float64, rep *Report) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.Name, o.seed))
	if err := WriteSpans(stem+".spans.jsonl", spans); err != nil {
		return err
	}
	sum := make(map[string]*layerSummary)
	for _, s := range spans {
		ls := sum[s.Name]
		if ls == nil {
			ls = &layerSummary{MeanSelf: self[s.Name]}
			sum[s.Name] = ls
		}
		ls.Calls++
		ls.MeanUS += float64(s.Dur()) / 1e3
	}
	rep.Note("%-26s %8s %12s %12s", "span", "calls", "mean us", "self us")
	for _, name := range sortedKeys(sum) {
		ls := sum[name]
		ls.MeanUS /= float64(ls.Calls)
		rep.Note("%-26s %8d %12.2f %12.2f", name, ls.Calls, ls.MeanUS, ls.MeanSelf)
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": w.Name,
		"seed":     o.seed,
		"spans":    stem + ".spans.jsonl",
		"layers":   sum,
		"metrics":  rep.Values,
	}, "", "  ")
	if err != nil {
		return err
	}
	rep.Note("spans: %s.spans.jsonl; summary: %s.layers.json", stem, stem)
	return os.WriteFile(stem+".layers.json", append(data, '\n'), 0o644)
}
