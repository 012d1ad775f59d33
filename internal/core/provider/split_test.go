package provider

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// TestSplitTieGoesToHighestWeight pins the deterministic tie-break: with
// idle populations [1, 3] and target 2 the exact shares are 0.5 and 1.5
// — equal remainders — and the spare unit must land on the heavier
// network, not on whichever entry a scan saw first.
func TestSplitTieGoesToHighestWeight(t *testing.T) {
	got := Split(2, []int{1, 3})
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Split(2, [1 3]) = %v, want [0 2]", got)
	}
	// Symmetric order: the heavier network still wins regardless of index.
	got = Split(2, []int{3, 1})
	if !reflect.DeepEqual(got, []int{2, 0}) {
		t.Fatalf("Split(2, [3 1]) = %v, want [2 0]", got)
	}
	// Equal weights with equal remainders fall back to the lower index.
	got = Split(3, []int{2, 2})
	if !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("Split(3, [2 2]) = %v, want [2 1]", got)
	}
}

// TestSplitPropertyBounds checks the Hamilton apportionment invariants
// over random weight vectors: shares sum exactly to the target, every
// share is the floor or ceiling of its exact proportional value, and
// zero-weight entries receive nothing while any weight is positive.
func TestSplitPropertyBounds(t *testing.T) {
	f := func(target uint16, raw []uint16) bool {
		if len(raw) == 0 {
			raw = []uint16{1}
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		weights := make([]int, len(raw))
		total := 0
		for i, w := range raw {
			weights[i] = int(w % 1000)
			total += weights[i]
		}
		tgt := int(target % 5000)
		out := Split(tgt, weights)
		sum := 0
		for i, v := range out {
			sum += v
			if v < 0 {
				return false
			}
			if total > 0 {
				exact := int64(tgt) * int64(weights[i])
				floor := int(exact / int64(total))
				ceil := floor
				if exact%int64(total) != 0 {
					ceil++
				}
				if v < floor || v > ceil {
					return false
				}
				if weights[i] == 0 && v != 0 {
					return false
				}
			}
		}
		return sum == tgt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitDeterministicRemainderOrder verifies the leftover units go to
// a prefix of the (remainder desc, weight desc, index asc) order — i.e.
// no lower-priority entry is ever rounded up while a higher-priority one
// holds its floor.
func TestSplitDeterministicRemainderOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 500; round++ {
		n := 2 + rng.Intn(8)
		weights := make([]int, n)
		total := 0
		for i := range weights {
			weights[i] = rng.Intn(50)
			total += weights[i]
		}
		if total == 0 {
			continue
		}
		target := 1 + rng.Intn(200)
		out := Split(target, weights)
		if again := Split(target, weights); !reflect.DeepEqual(out, again) {
			t.Fatalf("Split not deterministic: %v vs %v", out, again)
		}
		type pri struct {
			idx     int
			rem     int64
			weight  int
			rounded bool
		}
		pris := make([]pri, n)
		for i, w := range weights {
			exact := int64(target) * int64(w)
			pris[i] = pri{
				idx: i, rem: exact % int64(total), weight: w,
				rounded: out[i] > int(exact/int64(total)),
			}
		}
		sort.Slice(pris, func(a, b int) bool {
			if pris[a].rem != pris[b].rem {
				return pris[a].rem > pris[b].rem
			}
			if pris[a].weight != pris[b].weight {
				return pris[a].weight > pris[b].weight
			}
			return pris[a].idx < pris[b].idx
		})
		seenFloor := false
		for _, p := range pris {
			if p.rounded && seenFloor {
				t.Fatalf("target %d weights %v: entry %d rounded up after a higher-priority floor (%v)",
					target, weights, p.idx, out)
			}
			if !p.rounded && p.rem > 0 {
				seenFloor = true
			}
		}
	}
}

func TestSplitDegenerateInputs(t *testing.T) {
	if out := Split(0, []int{3, 4}); out[0] != 0 || out[1] != 0 {
		t.Fatalf("Split(0, ...) = %v", out)
	}
	if out := Split(5, nil); len(out) != 0 {
		t.Fatalf("Split over empty weights = %v", out)
	}
	// Negative weights are clamped to zero, not allowed to siphon shares.
	out := Split(4, []int{-10, 2, 2})
	if out[0] != 0 || out[1]+out[2] != 4 {
		t.Fatalf("Split with negative weight = %v", out)
	}
}

func TestSplitExactAndProportional(t *testing.T) {
	got := Split(10, []int{30, 10})
	if got[0]+got[1] != 10 {
		t.Fatalf("split not exact: %v", got)
	}
	if got[0] != 8 && got[0] != 7 {
		t.Fatalf("split not proportional: %v", got)
	}
	even := Split(10, []int{0, 0, 0})
	if even[0]+even[1]+even[2] != 10 {
		t.Fatalf("even split not exact: %v", even)
	}
}

// Property: split always sums to the target and never goes negative.
func TestSplitProperty(t *testing.T) {
	f := func(target uint8, raw []uint8) bool {
		if len(raw) == 0 {
			raw = []uint8{1}
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		weights := make([]int, len(raw))
		for i, w := range raw {
			weights[i] = int(w)
		}
		out := Split(int(target), weights)
		sum := 0
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += v
		}
		return sum == int(target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
