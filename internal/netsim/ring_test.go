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
	for _, p := range append(r.inline[:], r.buf...) {
		if p != nil {
			live++
		}
	}
	if live != r.Len() {
		t.Fatalf("%d non-nil slots in the inline and backing arrays, want exactly Len()=%d: popped or moved payloads are being retained", live, r.Len())
	}
}

// TestRingInlineAllocatesNothing: a ring that never holds more than
// ringInline items never allocates, which is what keeps a channel's
// first packets free.
func TestRingInlineAllocatesNothing(t *testing.T) {
	var r Ring[Packet]
	payload := new(int)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < ringInline; i++ {
			r.PushBack(Packet{Payload: payload, Size: i})
		}
		for i := 0; i < ringInline; i++ {
			if p, ok := r.PopFront(); !ok || p.Size != i {
				t.Fatalf("PopFront = %+v, %v, want size %d", p, ok, i)
			}
		}
	})
	if allocs != 0 || r.buf != nil {
		t.Fatalf("an inline ring allocates %.1f times (heap array %v)", allocs, r.buf != nil)
	}
	r.PushBack(Packet{})
	for i := 0; i < ringInline; i++ {
		r.PushBack(Packet{})
	}
	if r.buf == nil || r.Len() != ringInline+1 {
		t.Fatalf("ring of %d items did not move to the heap", r.Len())
	}
}

// TestRingCopyKeepsInlineItems: a copy of a ring whose items are inline
// holds its own items, so pushes and pops on either side do not reach
// the other, and the copy still grows on its own.
func TestRingCopyKeepsInlineItems(t *testing.T) {
	var r Ring[int]
	r.PushBack(1)
	c := r
	r.PushBack(2)
	if v, _ := c.PopFront(); v != 1 || c.Len() != 0 {
		t.Fatalf("copy popped %d, Len %d", v, c.Len())
	}
	for i := 10; i < 20; i++ {
		c.PushBack(i)
	}
	for _, want := range []int{1, 2} {
		if v, ok := r.PopFront(); !ok || v != want {
			t.Fatalf("original popped %d,%v want %d", v, ok, want)
		}
	}
	for want := 10; want < 20; want++ {
		if v, ok := c.PopFront(); !ok || v != want {
			t.Fatalf("copy popped %d,%v want %d", v, ok, want)
		}
	}
}
