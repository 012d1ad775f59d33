package netsim

import (
	"math/rand"
	"testing"
)

func TestRingFIFOAcrossGrowth(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 10_000; step++ {
		if rng.Intn(3) > 0 {
			r.PushBack(next)
			next++
		} else if v, ok := r.PopFront(); ok {
			if v != want {
				t.Fatalf("PopFront = %d, want %d", v, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("Len = %d, want %d", r.Len(), next-want)
		}
	}
	for want < next {
		v, ok := r.PopFront()
		if !ok || v != want {
			t.Fatalf("drain PopFront = %d,%v want %d,true", v, ok, want)
		}
		want++
	}
	if _, ok := r.PopFront(); ok {
		t.Fatal("PopFront on empty ring returned ok")
	}
}

func TestRingPeek(t *testing.T) {
	var r Ring[string]
	if _, ok := r.peek(); ok {
		t.Fatal("peek on empty ring returned ok")
	}
	r.PushBack("a")
	r.PushBack("b")
	if v, ok := r.peek(); !ok || v != "a" {
		t.Fatalf("peek = %q,%v want a,true", v, ok)
	}
	if r.Len() != 2 {
		t.Fatalf("peek consumed an item: Len = %d", r.Len())
	}
}

// TestRingReleasesPoppedSlots is the slice-retention regression: after a
// pointer payload is dequeued, no slot of the backing array may still
// reference it (the old q = q[1:] idiom kept the array head alive
// forever).
func TestRingReleasesPoppedSlots(t *testing.T) {
	var r Ring[*int]
	for i := 0; i < 100; i++ {
		v := i
		r.PushBack(&v)
	}
	for i := 0; i < 60; i++ {
		if _, ok := r.PopFront(); !ok {
			t.Fatal("unexpected empty ring")
		}
	}
	live := 0
	for _, p := range r.buf {
		if p != nil {
			live++
		}
	}
	if live != r.Len() {
		t.Fatalf("%d non-nil slots in the backing array, want exactly Len()=%d: popped payloads are being retained", live, r.Len())
	}
}
