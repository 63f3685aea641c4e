package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer of the system.
//
// The benchmark times layers from outside, so it cannot open a span
// inside a call it makes. Where a layer's work includes a call into a
// lower layer, the benchmark repeats that lower call on identical state
// right after the outer call returns and records it as a Replay child:
// its interval lies outside the parent's, and its whole duration is
// charged against the parent's self time. Children that are not replays
// nest inside their parent's interval as usual.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    int    `json:"req"`    // request id shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the start of the traced run
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory for one traced run. It is used from one
// goroutine.
type Tracer struct {
	t0    time.Time
	spans []Span
}

// NewTracer starts a trace whose timestamps count from now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// Begin opens a span and returns its id; End closes it.
func (t *Tracer) Begin(req, parent int, name string) int {
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: t.now()})
	return len(t.spans)
}

// BeginReplay opens a replay child of parent (see Span).
func (t *Tracer) BeginReplay(req, parent int, name string) int {
	id := t.Begin(req, parent, name)
	t.spans[id-1].Replay = true
	return id
}

// End closes span id.
func (t *Tracer) End(id int) { t.spans[id-1].End = t.now() }

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// SelfTimes returns each span's self time in nanoseconds, keyed by span
// id: its duration, minus the part of its interval that nested children
// cover (overlapping children counted once), minus the whole duration of
// its replay children. A self time never goes below zero.
func SelfTimes(spans []Span) map[int]int64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		self := s.Dur() - covered(s, kids[s.ID])
		for _, c := range kids[s.ID] {
			if c.Replay {
				self -= c.Dur()
			}
		}
		if self < 0 {
			self = 0
		}
		out[s.ID] = self
	}
	return out
}

// covered is the length of the union of the nested (non-replay) children's
// intervals, clipped to the parent's interval.
func covered(parent Span, children []Span) int64 {
	var iv [][2]int64
	for _, c := range children {
		if c.Replay {
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// MeanSelf is the mean self time of the spans of each name, in
// microseconds per call.
func MeanSelf(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	sum := make(map[string]int64)
	n := make(map[string]int)
	for _, s := range spans {
		sum[s.Name] += self[s.ID]
		n[s.Name]++
	}
	out := make(map[string]float64, len(sum))
	for name, ns := range sum {
		out[name] = float64(ns) / 1e3 / float64(n[name])
	}
	return out
}

// WriteSpans writes one JSON object per span.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
