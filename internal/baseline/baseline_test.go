package baseline

import (
	"testing"
	"time"

	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

const mb8 = 8 << 20

func TestUnicastLinearInN(t *testing.T) {
	u := Unicast{ImageBytes: mb8, UplinkBps: 100e6, DeltaBps: 10e6}
	r100, err := u.Analytic(100)
	if err != nil {
		t.Fatal(err)
	}
	r1000, err := u.Analytic(1000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r1000.Last.Seconds() / r100.Last.Seconds()
	if ratio < 8 || ratio > 12 {
		t.Fatalf("10× nodes scaled setup by %.2f, want ≈10 (linear)", ratio)
	}
}

func TestUnicastWorkerLinkFloor(t *testing.T) {
	// With few workers, each transfer is bounded by the worker's own
	// slow link, not the fat uplink.
	u := Unicast{ImageBytes: mb8, UplinkBps: 1e9, DeltaBps: 150e3}
	r, err := u.Analytic(3)
	if err != nil {
		t.Fatal(err)
	}
	floor := secs(float64(mb8) * 8 / 150e3)
	if r.Last < floor {
		t.Fatalf("last = %v beats the worker link floor %v", r.Last, floor)
	}
}

func TestUnicastSimulationMatchesAnalytic(t *testing.T) {
	u := Unicast{ImageBytes: mb8, UplinkBps: 100e6, DeltaBps: 150e3}
	for _, n := range []int{1, 7, 50, 500} {
		want, err := u.Analytic(n)
		if err != nil {
			t.Fatal(err)
		}
		clk := simtime.NewSim(epoch)
		got, err := u.Simulate(clk, n)
		if err != nil {
			t.Fatal(err)
		}
		tol := time.Millisecond
		if d := got.Last - want.Last; d < -tol || d > tol {
			t.Fatalf("n=%d: sim last %v vs analytic %v", n, got.Last, want.Last)
		}
	}
}

func TestIaaSWaves(t *testing.T) {
	v := IaaS{ImageBytes: mb8, DeltaBps: 100e6, Boot: time.Minute, Concurrency: 20}
	r20, err := v.Analytic(20)
	if err != nil {
		t.Fatal(err)
	}
	r200, err := v.Analytic(200)
	if err != nil {
		t.Fatal(err)
	}
	if got := r200.Last.Seconds() / r20.Last.Seconds(); got < 9.9 || got > 10.1 {
		t.Fatalf("10 waves should be 10× one wave, got %.2f", got)
	}
}

func TestMulticastLogarithmic(t *testing.T) {
	m := MulticastTree{ImageBytes: mb8, DeltaBps: 150e3, Fanout: 8}
	r64, err := m.Analytic(64)
	if err != nil {
		t.Fatal(err)
	}
	r4096, err := m.Analytic(64 * 64)
	if err != nil {
		t.Fatal(err)
	}
	// 64 → 4096 at fanout 8: depth 2 → 4 levels.
	if got := r4096.Last.Seconds() / r64.Last.Seconds(); got < 1.5 || got > 2.5 {
		t.Fatalf("depth scaling = %.2f, want ≈2 (logarithmic)", got)
	}
}

func TestOddCIFlatInN(t *testing.T) {
	o := OddCI{ImageBytes: mb8, BetaBps: 1e6}
	r1, err := o.Analytic(1)
	if err != nil {
		t.Fatal(err)
	}
	r1e6, err := o.Analytic(1000000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Last != r1e6.Last {
		t.Fatal("broadcast staging must not depend on N")
	}
	wantLast := secs(2 * float64(mb8) * 8 / 1e6)
	if r1.Last != wantLast {
		t.Fatalf("last = %v, want %v", r1.Last, wantLast)
	}
}

// The headline crossover of Table I: at small N unicast with a fat
// uplink wins; at large N OddCI's flat broadcast staging wins.
func TestCrossoverOddCIVsUnicast(t *testing.T) {
	u := Unicast{ImageBytes: mb8, UplinkBps: 1e9, DeltaBps: 10e6}
	o := OddCI{ImageBytes: mb8, BetaBps: 1e6}
	uSmall, _ := u.Analytic(10)
	oSmall, _ := o.Analytic(10)
	if uSmall.Last >= oSmall.Last {
		t.Fatalf("at N=10, unicast (%v) should beat broadcast (%v)", uSmall.Last, oSmall.Last)
	}
	uBig, _ := u.Analytic(1000000)
	oBig, _ := o.Analytic(1000000)
	if oBig.Last >= uBig.Last {
		t.Fatalf("at N=1e6, broadcast (%v) should beat unicast (%v)", oBig.Last, uBig.Last)
	}
}

func TestValidation(t *testing.T) {
	if _, err := (Unicast{}).Analytic(1); err == nil {
		t.Fatal("zero unicast accepted")
	}
	if _, err := (IaaS{}).Analytic(1); err == nil {
		t.Fatal("zero iaas accepted")
	}
	if _, err := (MulticastTree{Fanout: 1, DeltaBps: 1, ImageBytes: 1}).Analytic(1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	if _, err := (OddCI{}).Analytic(1); err == nil {
		t.Fatal("zero oddci accepted")
	}
	clk := simtime.NewSim(epoch)
	if _, err := (Unicast{}).Simulate(clk, 1); err == nil {
		t.Fatal("zero unicast simulation accepted")
	}
}
