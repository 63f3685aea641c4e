package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// syntheticTree is a request whose root span has overlapping children, a
// child running past the root's end, and replay children recorded after
// their parents returned.
func syntheticTree() []Span {
	return []Span{
		{ID: 1, Parent: 0, Req: 7, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 7, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Req: 7, Name: "b", Start: 20, End: 50},  // overlaps a: the union 10..50 counts once
		{ID: 4, Parent: 1, Req: 7, Name: "c", Start: 90, End: 120}, // only 90..100 lies inside root
		{ID: 5, Parent: 2, Req: 7, Name: "r", Start: 200, End: 215, Replay: true},
		{ID: 6, Parent: 5, Req: 7, Name: "n", Start: 205, End: 210}, // nested inside the replay
		{ID: 7, Parent: 3, Req: 7, Name: "big", Start: 300, End: 340, Replay: true},
	}
}

func TestSelfTimes(t *testing.T) {
	got := SelfTimes(syntheticTree())
	want := map[int]int64{
		1: 100 - 40 - 10, // root minus the union of a and b, minus c clipped to root
		2: 20 - 15,       // a minus its whole replay child
		3: 0,             // b's replay child outlasts it; self time stops at zero
		4: 30,
		5: 15 - 5, // the replay minus its nested child
		6: 5,
		7: 40,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestMeanSelfAveragesPerName(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "x", Start: 0, End: 4000},
		{ID: 2, Name: "x", Start: 5000, End: 7000},
		{ID: 3, Parent: 2, Name: "y", Start: 8000, End: 9000, Replay: true},
	}
	got := MeanSelf(spans)
	if got["x"] != 2.5 || got["y"] != 1 { // (4 + (2-1)) / 2 us and 1 us
		t.Fatalf("MeanSelf = %v, want x 2.5 us, y 1 us", got)
	}
}

func TestTracerRecordsTree(t *testing.T) {
	tr := NewTracer()
	top := tr.Begin(3, 0, "top")
	tr.End(top)
	rep := tr.BeginReplay(3, top, "lower")
	tr.End(rep)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if s := spans[1]; s.Parent != top || !s.Replay || s.Req != 3 || s.Start < spans[0].End || s.End < s.Start {
		t.Fatalf("replay span %+v does not follow its parent %+v", s, spans[0])
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var read []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		read = append(read, s)
	}
	if len(read) != 2 || read[0] != spans[0] || read[1] != spans[1] {
		t.Fatalf("spans file holds %+v, want %+v", read, spans)
	}
}
