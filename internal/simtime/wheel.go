package simtime

import "fmt"

// Wheel is a hierarchical timing wheel for integer-keyed bulk events: a
// fixed hierarchy of slot rings indexed by an int64 tick counter, holding
// int32 ids (typically indices into struct-of-arrays state). It is the
// scheduling core of the fleet simulation harness (internal/fleet), where
// one process tracks the next deadline of 10⁶ simulated nodes and the
// event heap behind Sim.AfterFunc — one allocation and O(log n) heap
// moves per timer — would dominate the run.
//
// Compared with the Sim event heap, the wheel trades generality for bulk
// throughput:
//
//   - events are (tick, id) pairs, not closures: no per-event allocation
//     beyond slot array growth, and a resident entry is 8 bytes — the id
//     and the low 32 bits of the tick, which is all of the tick the
//     2³²-tick horizon leaves undetermined (see wheelItem). A slot's
//     first array holds minSlotCap entries and a full slot doubles; a
//     drained slot keeps its own backing array for the next items that
//     land in it; nothing is shared or pooled between slots, so a
//     burst's capacity stays where it fell, and Reset keeps all of it
//     for the next schedule;
//   - insertion and cancellation are O(1); cancellation is lazy — callers
//     skip a fired (tick, id) whose id no longer expects that tick;
//   - all events due at one tick are delivered as a single batch, which
//     is what lets a caller turn one advance into thousands of node
//     transitions.
//
// A Wheel is not a Clock and is not safe for concurrent use. It needs no
// event heap beside it: a single goroutine calls AdvanceTo with the tick
// to play out to (the fleet engine makes that one call per id range of a
// run, each range on a wheel of its own), or Next to learn the next
// non-empty tick first.
type Wheel struct {
	// now is the cursor: every tick ≤ now has been fired or verified
	// empty. Next may advance it across verified-empty gaps.
	now int64
	// win is the level-0 window id (now >> wheelBits) whose ticks are
	// currently resident in level 0.
	win   int64
	count int
	// resident counts items per level, so seeks skip whole empty
	// windows instead of probing 256 slots each.
	resident [wheelLevels]int
	slots    [wheelLevels][wheelSlots][]wheelItem
	fire     []int32 // reused batch buffer handed to AdvanceTo callbacks
}

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	// WheelHorizon is the farthest a tick may be scheduled beyond the
	// cursor: the span of the top level ring.
	WheelHorizon = int64(1) << (wheelBits * wheelLevels)
	// minSlotCap is the capacity of a slot's first array (128 bytes),
	// and a full slot doubles. Most slots hold a few entries at a time:
	// append's growth from one entry made a cold 10⁵-node fleet run
	// allocate ~3,500 times on one wheel and ~11,300 on four (~1,400 and
	// ~4,100 now). Doubling rather than append's 1.25× for large arrays
	// is for the fleet's wakeup burst, ~750 k entries into ~32 slots at
	// one tick at 10⁶ nodes: 1.25× steps leave outgrown arrays of ~4×
	// what the slots end up holding, doubling ~1×, which took a cold
	// 10⁶ run's peak resident size on two cores from ~57 MB to ~49 MB,
	// for ~1.7 MB more capacity held after it.
	minSlotCap = 16
)

// wheelItem is one resident entry. Only the low word of the tick is
// kept: every resident item satisfies 0 < tick − now < WheelHorizon = 2³²
// (Schedule enforces it and the cursor only moves toward the tick), so
// the full tick is now + int64(lo − uint32(now)), exactly.
type wheelItem struct {
	lo uint32
	id int32
}

// NewWheel returns a wheel whose cursor starts at start: the first
// schedulable tick is start+1.
func NewWheel(start int64) *Wheel {
	return &Wheel{now: start, win: start >> wheelBits}
}

// Reset empties the wheel and moves its cursor to start, as NewWheel(start)
// would, but keeps every slot's backing array (and the batch buffer), so a
// wheel reused for a schedule like the last one books it without growing
// a slot. Items still pending are dropped.
func (w *Wheel) Reset(start int64) {
	for l := range w.slots {
		for s := range w.slots[l] {
			w.slots[l][s] = w.slots[l][s][:0]
		}
	}
	w.now, w.win, w.count = start, start>>wheelBits, 0
	w.resident = [wheelLevels]int{}
}

// Len reports the number of scheduled items, including lazily-cancelled
// ones the caller will skip at fire time.
func (w *Wheel) Len() int { return w.count }

// Schedule books id to fire at tick. A tick at or before the cursor is
// clamped to the next tick (it fires on the next advance). Scheduling
// past the wheel horizon panics: the fleet models bound their draws to
// the simulation end, and silent aliasing would fire events early.
func (w *Wheel) Schedule(tick int64, id int32) {
	if tick <= w.now {
		tick = w.now + 1
	}
	if tick-w.now >= WheelHorizon {
		panic(fmt.Sprintf("simtime: wheel schedule %d exceeds horizon (cursor %d)", tick, w.now))
	}
	w.place(tick, id)
	w.count++
}

// place inserts (tick, id) into the shallowest level whose ring spans the
// delta to the cursor. Slot index is the tick's level-l digit, so the item
// cascades down one level each time its window becomes current. The span
// check is inclusive (delta ≤ ring span): an item exactly one span away
// still lands one level down, where its slot's previous ring pass is
// already behind the cursor — an exclusive check would re-insert a
// boundary item into the level-l slot being drained, deferring it a full
// ring revolution.
func (w *Wheel) place(tick int64, id int32) {
	delta := tick - w.now
	var l int
	for l = 0; l < wheelLevels-1; l++ {
		if delta <= int64(1)<<(wheelBits*(l+1)) {
			break
		}
	}
	s := &w.slots[l][(tick>>(wheelBits*uint(l)))&wheelMask]
	if len(*s) == cap(*s) {
		grown := make([]wheelItem, len(*s), max(2*cap(*s), minSlotCap))
		copy(grown, *s)
		*s = grown
	}
	*s = append(*s, wheelItem{lo: uint32(tick), id: id})
	w.resident[l]++
}

// rollWindow moves the level-0 window forward one step, cascading every
// higher-level slot whose window starts at the new boundary. Cascaded
// items re-place at lower levels relative to the advanced cursor, their
// ticks rebuilt from the low word (the cursor sits at base−1 here, behind
// every one of them).
func (w *Wheel) rollWindow() {
	w.win++
	base := w.win << wheelBits
	for l := wheelLevels - 1; l >= 1; l-- {
		if base&(int64(1)<<(wheelBits*uint(l))-1) != 0 {
			continue // not a level-l window boundary
		}
		slot := &w.slots[l][(base>>(wheelBits*uint(l)))&wheelMask]
		items := *slot
		*slot = (*slot)[:0]
		w.resident[l] -= len(items)
		now := w.now
		for _, it := range items {
			w.place(now+int64(it.lo-uint32(now)), it.id)
		}
	}
}

// Next returns the earliest pending tick without firing it, advancing
// the cursor across verified-empty ticks (and cascading windows) along
// the way. It reports false when the wheel is empty.
func (w *Wheel) Next() (int64, bool) {
	if w.count == 0 {
		return 0, false
	}
	for {
		winEnd := (w.win+1)<<wheelBits - 1
		if w.resident[0] > 0 {
			for t := w.now + 1; t <= winEnd; t++ {
				if len(w.slots[0][t&wheelMask]) > 0 {
					w.now = t - 1
					return t, true
				}
				w.now = t
			}
		} else {
			w.now = winEnd
		}
		w.rollWindow()
	}
}

// AdvanceTo fires every pending batch with tick ≤ limit, in tick order.
// The cursor ends at limit, or just before the next pending tick when
// the seek verified a longer gap empty. The ids slice passed to fire is
// reused across calls: consume it before returning. fire may Schedule
// new items, including at ticks ≤ limit (they fire in the same advance).
func (w *Wheel) AdvanceTo(limit int64, fire func(tick int64, ids []int32)) {
	for {
		t, ok := w.Next()
		if !ok || t > limit {
			break
		}
		slot := &w.slots[0][t&wheelMask]
		buf := w.fire[:0]
		for _, it := range *slot {
			if it.lo != uint32(t) {
				panic(fmt.Sprintf("simtime: wheel slot holds low word %#x while firing tick %d", it.lo, t))
			}
			buf = append(buf, it.id)
		}
		*slot = (*slot)[:0]
		w.count -= len(buf)
		w.resident[0] -= len(buf)
		w.now = t
		w.fire = buf
		fire(t, buf)
	}
	if w.now < limit {
		w.now = limit
		w.win = limit >> wheelBits
	}
}
