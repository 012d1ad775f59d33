package main

import (
	"testing"
	"time"
)

// fakeWorkload counts what measure does with it.
type fakeWorkload struct {
	perCycle, ops, renews int
	// opsAtRenew is how many ops had run at each renew.
	opsAtRenew []int
}

func (f *fakeWorkload) op(i int, c opCtx) (string, error) {
	f.ops++
	time.Sleep(time.Millisecond)
	return kindMain, nil
}
func (f *fakeWorkload) cycle() int { return f.perCycle }
func (f *fakeWorkload) renew() error {
	f.renews++
	f.opsAtRenew = append(f.opsAtRenew, f.ops)
	return nil
}
func (f *fakeWorkload) layer(map[string]float64, *tracedWindow) error { return nil }
func (f *fakeWorkload) close()                                        {}

// A window is whole cycles, each renewed first, and ends inside the
// time asked for once a first cycle has shown how long one takes.
func TestMeasureRunsWholeCycles(t *testing.T) {
	for _, rec := range []*spanRec{nil, newSpanRec()} {
		f := &fakeWorkload{perCycle: 3}
		const seconds = 0.1
		w, err := measure(f, seconds, rec)
		if err != nil {
			t.Fatal(err)
		}
		per := 3
		if rec != nil {
			per = 6 // traced and untraced ops alternate
		}
		if w.perCycle != per || len(w.samples) != per*len(w.cycleS) || len(w.cycleS) < 2 {
			t.Fatalf("%d samples in %d cycles of %d", len(w.samples), len(w.cycleS), w.perCycle)
		}
		if f.renews != len(w.cycleS) {
			t.Errorf("%d renews for %d cycles", f.renews, len(w.cycleS))
		}
		for k, n := range f.opsAtRenew {
			if n != k*per {
				t.Errorf("renew %d came after %d ops, want %d", k, n, k*per)
			}
		}
		if w.wall.Seconds() > seconds+0.05 {
			t.Errorf("window ran %.3f s, asked for %.3f", w.wall.Seconds(), seconds)
		}
		traced := len(w.ops(kindMain, true))
		if rec == nil && traced != 0 || rec != nil && traced != len(w.samples)/2 {
			t.Errorf("%d of %d ops traced", traced, len(w.samples))
		}
	}
	// However short the window, one whole cycle runs.
	f := &fakeWorkload{perCycle: 4}
	if w, _ := measure(f, 0, nil); len(w.samples) != 4 {
		t.Errorf("%d ops in a zero-length window, want one cycle of 4", len(w.samples))
	}
}
