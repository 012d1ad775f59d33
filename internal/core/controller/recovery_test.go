package controller

import (
	"errors"
	"strings"
	"testing"
	"time"

	"oddci/internal/core/instance"
	"oddci/internal/journal"
	"oddci/internal/obs"
)

func openRecoveryStore(t *testing.T, dir string, opts journal.Options) *journal.Store {
	t.Helper()
	opts.NoSync = true
	s, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// journaledRig is newRig plus a journal store over dir, so a later rig
// on the same dir models a controller restart from durable state.
func journaledRig(t *testing.T, dir string, reg *obs.Registry, opts journal.Options) (*rig, *journal.Store) {
	t.Helper()
	st := openRecoveryStore(t, dir, opts)
	r := newRigWith(t, nil, func(cfg *Config) {
		cfg.Journal = st
		cfg.Obs = reg
	})
	return r, st
}

// TestRecoveredStatusDistinction is the PR's small-fix regression: a
// restarted controller must keep reporting ErrInstanceGone for IDs it
// issued and garbage-collected before the crash, and ErrUnknownInstance
// only for IDs it never issued.
func TestRecoveredStatusDistinction(t *testing.T) {
	dir := t.TempDir()
	r1, s1 := journaledRig(t, dir, nil, journal.Options{})

	idA, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.ctrl.DestroyInstance(idA); err != nil {
		t.Fatal(err)
	}
	// Run the reset-retransmission window down so idA is GC'd pre-crash.
	r1.advance(4 * 30 * time.Second)
	if _, err := r1.ctrl.Status(idA); !errors.Is(err, ErrInstanceGone) {
		t.Fatalf("pre-crash Status(gc'd) = %v, want ErrInstanceGone", err)
	}
	r1.ctrl.Stop()
	s1.Close()

	r2, _ := journaledRig(t, dir, nil, journal.Options{})
	if !r2.ctrl.Recovered() {
		t.Fatal("controller on a populated state dir should report Recovered")
	}
	if _, err := r2.ctrl.Status(idA); !errors.Is(err, ErrInstanceGone) {
		t.Fatalf("recovered Status(gc'd) = %v, want ErrInstanceGone", err)
	}
	if st, err := r2.ctrl.Status(idB); err != nil || st.Target != 1 {
		t.Fatalf("recovered Status(live) = %+v, %v", st, err)
	}
	if _, err := r2.ctrl.Status(instance.ID(999)); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("recovered Status(never issued) = %v, want ErrUnknownInstance", err)
	}
	// The ID high-water mark survives: new instances never reuse idB+1.
	idC, err := r2.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idC != idB+1 {
		t.Fatalf("post-restart create issued ID %d, want %d", idC, idB+1)
	}
	r2.ctrl.Stop()
	r2.clk.Wait()
}

// TestDeterministicRecovery replays the same snapshot+journal into two
// independent controllers and requires byte-identical durable state
// dumps and byte-identical /varz renderings.
func TestDeterministicRecovery(t *testing.T) {
	dir := t.TempDir()
	r1, s1 := journaledRig(t, dir, nil, journal.Options{})
	idA, err := r1.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 3, InitialProbability: 0.5,
		HeartbeatPeriod: 45 * time.Second, Lifetime: time.Hour,
		Requirements: instance.Requirements{Class: instance.ClassSTB, MinMemMB: 128, MinCPUScore: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 1}); err != nil {
		t.Fatal(err)
	}
	r1.heartbeatBusy(1, idA)
	r1.heartbeatBusy(2, idA)
	if err := r1.ctrl.Resize(idA, 5); err != nil {
		t.Fatal(err)
	}
	idC, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.ctrl.DestroyInstance(idC); err != nil {
		t.Fatal(err)
	}
	r1.advance(65 * time.Second)
	r1.ctrl.Stop()
	s1.Close()

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	rA, _ := journaledRig(t, dir, regA, journal.Options{})
	rB, _ := journaledRig(t, dir, regB, journal.Options{})
	dumpA, dumpB := rA.ctrl.dumpState(), rB.ctrl.dumpState()
	if dumpA != dumpB {
		t.Fatalf("replayed state dumps differ:\n--- A ---\n%s--- B ---\n%s", dumpA, dumpB)
	}
	if !strings.Contains(dumpA, "instance") {
		t.Fatalf("replayed dump is empty:\n%s", dumpA)
	}
	if jsonA, jsonB := regA.RenderJSON(), regB.RenderJSON(); jsonA != jsonB {
		t.Fatalf("replayed /varz renderings differ:\n--- A ---\n%s--- B ---\n%s", jsonA, jsonB)
	}
	rA.ctrl.Stop()
	rB.ctrl.Stop()
}

// TestRecoveredAdoptionGrace: a restarted controller must re-adopt
// surviving members from their heartbeats instead of re-waking the
// instance — maintenance may not recompose while the adoption grace
// window is open, even with a deficit and idle candidates on hand.
func TestRecoveredAdoptionGrace(t *testing.T) {
	dir := t.TempDir()
	r1, s1 := journaledRig(t, dir, nil, journal.Options{})
	id, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1.heartbeatBusy(1, id)
	r1.heartbeatBusy(2, id)
	st, err := r1.ctrl.Status(id)
	if err != nil || st.Busy != 2 || st.Wakeups != 1 {
		t.Fatalf("pre-crash status = %+v, %v", st, err)
	}
	s1.Close() // hard stop: r1 is simply abandoned

	r2, _ := journaledRig(t, dir, nil, journal.Options{})
	// Node 1 survived the controller crash and re-adopts; node 2 is
	// gone. Node 7 idles — recompose bait if the grace window leaks.
	r2.heartbeatBusy(1, id)
	r2.heartbeatIdle(7)
	// Grace: HeartbeatGrace (3) × the PNA's 1-minute reporting
	// period. Maintenance runs every 30s; none of the passes inside the
	// window may re-wake despite deficit 1 and an eligible idle node.
	for now := 30 * time.Second; now <= 150*time.Second; now += 30 * time.Second {
		r2.advance(30 * time.Second)
		r2.heartbeatBusy(1, id)
		r2.heartbeatIdle(7)
		st, err := r2.ctrl.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Wakeups != 1 {
			t.Fatalf("recompose during adoption grace at t=%s: wakeups=%d", now, st.Wakeups)
		}
		if st.Busy != 1 {
			t.Fatalf("re-adopted membership at t=%s = %d, want 1", now, st.Busy)
		}
	}
	// Past the window the deficit is real: the next maintenance pass
	// (t=180s, exactly the grace boundary) recomposes.
	r2.advance(30 * time.Second)
	st, err = r2.ctrl.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wakeups != 2 {
		t.Fatalf("post-grace wakeups = %d, want 2 (one recompose)", st.Wakeups)
	}
	r2.ctrl.Stop()
	r2.clk.Wait()
}

// TestRecoveryFromCompactedSnapshot restarts from a state dir whose
// journal was folded into a snapshot, and requires the recovered live
// state to match the pre-crash dump byte for byte.
func TestRecoveryFromCompactedSnapshot(t *testing.T) {
	dir := t.TempDir()
	// CompactEvery=1 arms compaction on the first append, which folds the
	// journal into the snapshot.
	r1, s1 := journaledRig(t, dir, nil, journal.Options{CompactEvery: 1})
	if _, err := r1.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 4, InitialProbability: 0.25,
		HeartbeatPeriod: 20 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	r1.advance(35 * time.Second)
	if s1.NeedsCompaction() {
		t.Fatal("the create's append should have compacted the journal")
	}
	want := r1.ctrl.dumpState()
	s1.Close()

	r2, _ := journaledRig(t, dir, nil, journal.Options{})
	if !r2.ctrl.Recovered() {
		t.Fatal("snapshot-only state dir should recover")
	}
	if got := r2.ctrl.dumpState(); got != want {
		t.Fatalf("snapshot recovery diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	r2.ctrl.Stop()
	r2.clk.Wait()
}
