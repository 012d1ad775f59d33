package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// collect drains the wheel up to limit into (tick, id) pairs.
func collect(w *Wheel, limit int64) (ticks []int64, ids []int32) {
	w.AdvanceTo(limit, func(tick int64, batch []int32) {
		for _, id := range batch {
			ticks = append(ticks, tick)
			ids = append(ids, id)
		}
	})
	return
}

func TestWheelFiresInTickOrder(t *testing.T) {
	w := NewWheel(0)
	for i, tick := range []int64{500, 3, 70000, 3, 256, 17_000_000, 257} {
		w.Schedule(tick, int32(i))
	}
	if w.Len() != 7 {
		t.Fatalf("Len = %d, want 7", w.Len())
	}
	ticks, ids := collect(w, 20_000_000)
	wantTicks := []int64{3, 3, 256, 257, 500, 70000, 17_000_000}
	wantIDs := []int32{1, 3, 4, 6, 0, 2, 5}
	if len(ticks) != len(wantTicks) {
		t.Fatalf("fired %d items, want %d", len(ticks), len(wantTicks))
	}
	for i := range wantTicks {
		if ticks[i] != wantTicks[i] || ids[i] != wantIDs[i] {
			t.Fatalf("firing %d = (%d,%d), want (%d,%d)", i, ticks[i], ids[i], wantTicks[i], wantIDs[i])
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after drain", w.Len())
	}
}

func TestWheelBatchesSameTick(t *testing.T) {
	w := NewWheel(100)
	for i := int32(0); i < 1000; i++ {
		w.Schedule(5000, i)
	}
	var batches int
	var total int
	w.AdvanceTo(10_000, func(tick int64, ids []int32) {
		batches++
		total += len(ids)
		if tick != 5000 {
			t.Fatalf("fired at %d, want 5000", tick)
		}
	})
	if batches != 1 || total != 1000 {
		t.Fatalf("batches=%d total=%d, want one batch of 1000", batches, total)
	}
}

func TestWheelPastTickClampsToNext(t *testing.T) {
	w := NewWheel(50)
	w.Schedule(10, 1) // in the past: fires at the next tick
	w.Schedule(50, 2) // at the cursor: same
	ticks, _ := collect(w, 60)
	if len(ticks) != 2 || ticks[0] != 51 || ticks[1] != 51 {
		t.Fatalf("clamped ticks = %v, want [51 51]", ticks)
	}
}

func TestWheelAdvanceStopsAtLimit(t *testing.T) {
	w := NewWheel(0)
	w.Schedule(10, 1)
	w.Schedule(20, 2)
	ticks, _ := collect(w, 15)
	if len(ticks) != 1 || ticks[0] != 10 {
		t.Fatalf("fired %v, want [10]", ticks)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want the tick-20 item pending", w.Len())
	}
	ticks, _ = collect(w, 25)
	if len(ticks) != 1 || ticks[0] != 20 {
		t.Fatalf("second advance fired %v, want [20]", ticks)
	}
}

func TestWheelEmptyAdvanceMovesCursor(t *testing.T) {
	w := NewWheel(0)
	w.AdvanceTo(1_000_000, func(int64, []int32) { t.Fatal("fired on empty wheel") })
	if w.Now() != 1_000_000 {
		t.Fatalf("cursor = %d, want 1000000", w.Now())
	}
	w.Schedule(1_000_001, 7)
	ticks, _ := collect(w, 2_000_000)
	if len(ticks) != 1 || ticks[0] != 1_000_001 {
		t.Fatalf("fired %v after cursor jump", ticks)
	}
}

func TestWheelScheduleDuringFire(t *testing.T) {
	w := NewWheel(0)
	w.Schedule(10, 1)
	var fired []int64
	w.AdvanceTo(100, func(tick int64, ids []int32) {
		fired = append(fired, tick)
		if tick == 10 {
			w.Schedule(tick+5, 2) // within the same advance window
			w.Schedule(tick+500, 3)
		}
	})
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired %v, want [10 15]", fired)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want tick-510 item pending", w.Len())
	}
}

func TestWheelHorizonPanics(t *testing.T) {
	w := NewWheel(0)
	defer func() {
		if recover() == nil {
			t.Fatal("schedule past the horizon did not panic")
		}
	}()
	w.Schedule(WheelHorizon, 1)
}

// TestWheelSpanBoundaries pins the inclusive-span placement rule: items
// exactly one ring span away must not defer a full revolution.
func TestWheelSpanBoundaries(t *testing.T) {
	deltas := []int64{
		1, 255, 256, 257,
		wheelSlots*wheelSlots - 1, wheelSlots * wheelSlots, wheelSlots*wheelSlots + 1,
		1<<24 - 1, 1 << 24, 1<<24 + 1,
		WheelHorizon - 1,
	}
	for _, start := range []int64{0, 1, 255, 256, 65535, 1<<24 - 1} {
		for i, d := range deltas {
			w := NewWheel(start)
			w.Schedule(start+d, int32(i))
			ticks, _ := collect(w, start+d+1)
			if len(ticks) != 1 || ticks[0] != start+d {
				t.Fatalf("start=%d delta=%d fired %v, want [%d]", start, d, ticks, start+d)
			}
		}
	}
}

// TestWheelItemIsEightBytes pins the resident entry's size: the low word
// of the tick and the id, no padding.
func TestWheelItemIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(wheelItem{}); n != 8 {
		t.Fatalf("wheelItem is %d bytes, want 8", n)
	}
}

// TestWheelLowWordAcrossBoundary: an item keeps only the low 32 bits of
// its tick, so ticks on both sides of 2³² — where the low word wraps —
// and one a full horizon out, which rides down through all four levels,
// must each fire at their exact tick. The farther starts put items past
// 2³² on levels 2 and 3 while the cursor is still short of it, so their
// ticks are rebuilt across the wrap at the cascade.
func TestWheelLowWordAcrossBoundary(t *testing.T) {
	for _, back := range []int64{300, 70_000, 1<<24 + 7} {
		start := int64(1)<<32 - back
		want := []int64{
			start + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1,
			1<<32 + 255, 1<<32 + 256, 1<<32 + 1000, 1<<32 + 70_000, 1<<32 + 1<<24 + 5,
			start + WheelHorizon - 1,
		}
		w := NewWheel(start)
		for i := len(want) - 1; i >= 0; i-- { // booked out of order
			w.Schedule(want[i], int32(i))
		}
		ticks, ids := collect(w, start+WheelHorizon)
		if len(ticks) != len(want) {
			t.Fatalf("start 2³²-%d: fired %d items, want %d", back, len(ticks), len(want))
		}
		for i := range want {
			if ticks[i] != want[i] || ids[i] != int32(i) {
				t.Fatalf("start 2³²-%d: firing %d = (%d,%d), want (%d,%d)", back, i, ticks[i], ids[i], want[i], i)
			}
		}
		if w.Len() != 0 {
			t.Fatalf("start 2³²-%d: Len = %d after drain", back, w.Len())
		}
	}
}

// TestWheelMatchesReference runs randomized schedules (including
// schedules issued mid-fire) against a sorted-slice reference model,
// from starts near zero and from starts just short of 2³², where the
// stored low word of most ticks wraps.
func TestWheelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		start := rng.Int63n(1 << 20)
		if trial >= 20 {
			start = 1<<32 - 1 - start
		}
		w := NewWheel(start)
		type ref struct {
			tick int64
			id   int32
		}
		var want []ref
		var id int32
		add := func(now int64) {
			tick := now + 1 + rng.Int63n(1<<uint(8+rng.Intn(17)))
			w.Schedule(tick, id)
			want = append(want, ref{tick, id})
			id++
		}
		for i := 0; i < 300; i++ {
			add(start)
		}
		var got []ref
		limit := start + 1<<25
		w.AdvanceTo(limit, func(tick int64, ids []int32) {
			for _, fid := range ids {
				got = append(got, ref{tick, fid})
			}
			if rng.Intn(4) == 0 && id < 400 {
				add(tick)
			}
		})
		// Drop reference entries beyond the advance limit.
		var inRange []ref
		for _, r := range want {
			if r.tick <= limit {
				inRange = append(inRange, r)
			}
		}
		sort.SliceStable(inRange, func(i, j int) bool { return inRange[i].tick < inRange[j].tick })
		if len(got) != len(inRange) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), len(inRange))
		}
		for i := range got {
			if got[i].tick != inRange[i].tick {
				t.Fatalf("trial %d: firing %d at tick %d, want %d", trial, i, got[i].tick, inRange[i].tick)
			}
		}
		if w.Len() != len(want)-len(inRange) {
			t.Fatalf("trial %d: Len = %d, want %d pending", trial, w.Len(), len(want)-len(inRange))
		}
	}
}

func BenchmarkWheelScheduleFire(b *testing.B) {
	w := NewWheel(0)
	var fired int
	for i := 0; i < b.N; i++ {
		w.Schedule(w.Now()+1+int64(i%1000), int32(i))
		if i%64 == 63 {
			w.AdvanceTo(w.Now()+32, func(_ int64, ids []int32) { fired += len(ids) })
		}
	}
	w.AdvanceTo(w.Now()+2000, func(_ int64, ids []int32) { fired += len(ids) })
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}
