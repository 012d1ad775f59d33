package netsim

import (
	"math/rand"
	"testing"
)

func TestFaultPlanAlwaysAndNever(t *testing.T) {
	always := NewFaultPlan(nil, 1, 0)
	for i := 0; i < 10; i++ {
		if !always.Next() {
			t.Fatal("failProb=1 did not fail")
		}
	}
	never := NewFaultPlan(nil, 0, 0)
	for i := 0; i < 10; i++ {
		if never.Next() {
			t.Fatal("failProb=0 failed")
		}
	}
	if inj, failed := always.Stats(); inj != 10 || failed != 10 {
		t.Fatalf("stats = %d/%d", inj, failed)
	}
}

func TestFaultPlanBoundsConsecutiveFailures(t *testing.T) {
	p := NewFaultPlan(rand.New(rand.NewSource(7)), 1, 3)
	run := 0
	for i := 0; i < 100; i++ {
		if p.Next() {
			run++
			if run > 3 {
				t.Fatalf("consecutive failures = %d, bound is 3", run)
			}
		} else {
			run = 0
		}
	}
	if inj, failed := p.Stats(); inj != 100 || failed == 0 || failed == 100 {
		t.Fatalf("stats = %d/%d, want a mix", inj, failed)
	}
}

func TestFaultPlanDeterministicUnderSeed(t *testing.T) {
	draw := func() []bool {
		p := NewFaultPlan(rand.New(rand.NewSource(42)), 0.5, 0)
		out := make([]bool, 32)
		for i := range out {
			out[i] = p.Next()
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across equal seeds", i)
		}
	}
}
