package experiments

import (
	"math/rand"
	"strings"
	"testing"
)

// Every registered experiment must run clean in quick mode and produce
// at least one table or figure.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Config{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tables)+len(res.Figs) == 0 {
				t.Fatal("experiment produced no output")
			}
			var b strings.Builder
			res.Render(&b)
			if !strings.Contains(b.String(), res.ID) {
				t.Fatal("render missing experiment id")
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestIDsStable(t *testing.T) {
	want := []string{"table1", "table2", "table3", "wakeup", "fig6", "fig7",
		"abl-prob", "abl-churn", "abl-heartbeat", "abl-carousel", "abl-transport", "churn-eff",
		"lifecycle", "byzantine"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	seen := make(map[string]bool)
	for _, id := range got {
		seen[id] = true
	}
	for _, id := range want {
		if !seen[id] {
			t.Fatalf("missing experiment %q in %v", id, got)
		}
	}
}

// Shape assertions on the headline results (quick mode).
func TestTable1Shape(t *testing.T) {
	res, err := Run("table1", Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// OddCI column must be constant; grid column must grow.
	fig := res.Figs[0]
	var oddci, grid *struct{ first, last float64 }
	for _, s := range fig.Series {
		v := &struct{ first, last float64 }{s.Y[0], s.Y[len(s.Y)-1]}
		switch s.Label {
		case "oddci":
			oddci = v
		case "desktop-grid":
			grid = v
		}
	}
	if oddci == nil || grid == nil {
		t.Fatal("missing series")
	}
	if oddci.first != oddci.last {
		t.Fatalf("oddci setup not flat: %v → %v", oddci.first, oddci.last)
	}
	if grid.last <= grid.first {
		t.Fatal("grid setup did not grow with N")
	}
	if grid.last <= oddci.last {
		t.Fatal("at the largest N, oddci should win")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Run("fig6", Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Figs[0].Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("series %s not increasing at point %d", s.Label, i)
			}
		}
		if last := s.Y[len(s.Y)-1]; last <= 0 || last > 1 {
			t.Fatalf("series %s efficiency out of range: %v", s.Label, last)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := Run("fig7", Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Makespan increases with Φ within a series, and higher n/N costs
	// more at the same Φ.
	series := res.Figs[0].Series
	for _, s := range series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Fatalf("series %s makespan not increasing", s.Label)
			}
		}
	}
	lastIdx := len(series[0].Y) - 1
	if series[len(series)-1].Y[lastIdx] <= series[0].Y[lastIdx] {
		t.Fatal("higher n/N should have larger makespan at same Φ")
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Run("table2", Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Tables[0].String()
	if !strings.Contains(out, "measured") {
		t.Fatalf("no measured rows:\n%s", out)
	}
}

// The abl-transport table's shape, on unrounded values: a flute receiver
// never waits more than one cycle, the DTV file-granularity receiver
// averages the paper's 1.5 and never more than 2.
func TestAblTransportShape(t *testing.T) {
	for _, img := range []int{1 << 20, 4 << 20} {
		dtv, fl, err := transportWaits(img, 2000, rand.New(rand.NewSource(int64(img))))
		if err != nil {
			t.Fatal(err)
		}
		if fl.Max() > 1.0 {
			t.Errorf("%d MiB: FLUTE max %.4f cycles, want ≤ 1.0", img>>20, fl.Max())
		}
		if m := dtv.Mean(); m < 1.4 || m > 1.6 {
			t.Errorf("%d MiB: DTV mean %.4f cycles, want in [1.4, 1.6]", img>>20, m)
		}
		if dtv.Max() > 2.0 {
			t.Errorf("%d MiB: DTV max %.4f cycles, want ≤ 2.0", img>>20, dtv.Max())
		}
	}
}

// TestByzantineGates runs the full adversarial grid (fraction ×
// replication × seed) and holds the two hardening gates in every cell:
// no wrong commit at Replication 5 — the 3000 milli-credit quorum is out
// of reach of colluding groups capped at 2000 — and at least 95% of the
// byzantine population quarantined wherever there is one.
func TestByzantineGates(t *testing.T) {
	for _, r := range []int{3, 5} {
		for _, f := range []float64{0, 0.1, 0.2, 0.3} {
			for _, seed := range []int64{2009, 4181, 9973} {
				out, err := RunByzantineScenario(ByzantineScenario{Fraction: f, Replication: r, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if r == 5 && out.WrongCommits != 0 {
					t.Errorf("R=5 f=%.1f seed=%d: %d wrong commits", f, seed, out.WrongCommits)
				}
				if (f > 0) != (out.Byzantine > 0) {
					t.Errorf("R=%d f=%.1f seed=%d: %d byzantine nodes", r, f, seed, out.Byzantine)
				}
				if float64(out.ByzQuarantined) < 0.95*float64(out.Byzantine) {
					t.Errorf("R=%d f=%.1f seed=%d: %d of %d byzantine nodes quarantined, want ≥95%%",
						r, f, seed, out.ByzQuarantined, out.Byzantine)
				}
			}
		}
	}
}
