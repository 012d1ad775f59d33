package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Two sessions side by side cover their union, a child running past
// its parent is clipped, and a grandchild does not count twice.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	r := &spanRec{spans: []spanData{
		{ID: 1, Op: 2, Name: spanOp, Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 2, Name: "transport.session", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 2, Name: "transport.session", Start: 30, End: 70},
		{ID: 4, Parent: 1, Op: 2, Name: spanCheck, Start: 90, End: 120},
		{ID: 5, Parent: 2, Op: 2, Name: "inner", Start: 20, End: 30},
		{ID: 6, Op: 4, Name: spanOp, Start: 200, End: 300},
	}}
	spans := r.finish()
	for id, want := range map[int]int64{1: 30, 2: 30, 3: 40, 4: 30, 5: 10, 6: 100} {
		if got := spans[id-1].SelfNS; got != want {
			t.Errorf("span %d: self %d ns, want %d", id, got, want)
		}
	}
	// Ops 1 and 6: 130 ns of 200 ns unexplained.
	if got := uncoveredFrac(spans); got != 0.65 {
		t.Errorf("uncovered %g, want 0.65", got)
	}
	if got := spanDurationsMS(spans, "transport.session"); len(got) != 2 || got[0] != 40e-6 || got[1] != 40e-6 {
		t.Errorf("session durations %v", got)
	}
}

func TestRecorderNilSafeAndWritesJSONL(t *testing.T) {
	var none *spanRec
	none.end(none.start(0, 1, "x"))
	if none.finish() != nil {
		t.Error("nil recorder returned spans")
	}
	opCtx{}.span("x")() // untraced ops record nothing and must not panic

	r := newSpanRec()
	c := opCtx{rec: r, op: 1, parent: r.start(0, 1, spanOp)}
	c.span("layer.call")()
	r.end(c.parent)
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := writeSpans(path, r.finish()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []spanData
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s spanData
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Name != "layer.call" || got[1].Op != 1 {
		t.Errorf("spans read back: %+v", got)
	}
}
