package controller

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/journal"
	"oddci/internal/obs"
)

func openRecoveryStore(t *testing.T, dir string, opts journal.Options) *journal.Store {
	t.Helper()
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

// TestDeterministicRecovery replays the same journal into two
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
// journal was compacted, folded into one create per instance, and
// requires the recovered live state to match the pre-crash dump byte
// for byte.
func TestRecoveryFromCompactedSnapshot(t *testing.T) {
	dir := t.TempDir()
	storeReg := obs.NewRegistry()
	r1, s1 := journaledRig(t, dir, nil, journal.Options{Obs: storeReg})
	id, err := r1.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 4, InitialProbability: 0.25,
		HeartbeatPeriod: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 255 resizes after the create: 256 records arm compaction, which
	// folds the journal into the instance's create.
	for i := 0; i < 255; i++ {
		if err := r1.ctrl.Resize(id, 4+i%2); err != nil {
			t.Fatal(err)
		}
	}
	r1.advance(35 * time.Second)
	if v, _ := storeReg.Value("oddci_journal_compactions_total"); v < 1 || s1.NeedsCompaction() {
		t.Fatal("256 appends should have compacted the journal")
	}
	want := r1.ctrl.dumpState()
	s1.Close()

	r2, _ := journaledRig(t, dir, nil, journal.Options{})
	if !r2.ctrl.Recovered() {
		t.Fatal("a compacted state dir should recover")
	}
	if got := r2.ctrl.dumpState(); got != want {
		t.Fatalf("compacted recovery diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	r2.ctrl.Stop()
	r2.clk.Wait()
}

// crashPoints wraps a HeadEnd and, each time the Controller hands it
// content to air, copies the state dir first: each copy is the durable
// state of a crash the moment that content went on air.
type crashPoints struct {
	HeadEnd
	t     *testing.T
	dir   string
	snaps []string
}

func (h *crashPoints) Update(files []dsmcc.File) error {
	h.snaps = append(h.snaps, copyDir(h.t, h.dir))
	return h.HeadEnd.Update(files)
}

// copyDir copies the files of dir into a fresh temp dir: the state dir
// a crash at this instant would leave.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	snap := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(snap, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

// TestCrashAfterAiringKeepsInstanceIdentity: a Controller that crashes
// once an instance's wakeup is on air must come back knowing that
// instance, so it never issues the aired ID to a different image. Were
// the create aired before it is journaled, the restart would hand B's
// ID to C, and a node running B's image would count as a member of C.
func TestCrashAfterAiringKeepsInstanceIdentity(t *testing.T) {
	dir := t.TempDir()
	head := &crashPoints{t: t, dir: dir}
	r1 := newRigWith(t, func(h HeadEnd) HeadEnd { head.HeadEnd = h; return head }, func(cfg *Config) {
		cfg.Journal = openRecoveryStore(t, dir, journal.Options{})
	})
	if _, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1}); err != nil {
		t.Fatal(err)
	}
	airedB := len(head.snaps)
	idB, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(head.snaps) != airedB+1 {
		t.Fatalf("creating B handed the head-end %d updates, want 1", len(head.snaps)-airedB)
	}
	r1.heartbeatBusy(7, idB)
	r1.ctrl.Stop()

	r2, _ := journaledRig(t, head.snaps[airedB], nil, journal.Options{})
	imgC := &appimage.Image{Name: "other", EntryPoint: "e", Payload: make([]byte, 2000)}
	idC, err := r2.ctrl.CreateInstance(InstanceSpec{Image: imgC, Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idC == idB {
		t.Fatalf("restarted Controller reissued aired instance id %d", idB)
	}
	r2.heartbeatBusy(7, idB)
	if st, err := r2.ctrl.Status(idC); err != nil || st.Busy != 0 {
		t.Fatalf("C after a busy heartbeat naming B: %+v, %v; want Busy 0", st, err)
	}
	r2.ctrl.Stop()
	r2.clk.Wait()
}

// replayedDump restarts a Controller over a copy of dir and returns its
// dumpState.
func replayedDump(t *testing.T, dir string) string {
	t.Helper()
	r, _ := journaledRig(t, copyDir(t, dir), nil, journal.Options{})
	defer r.ctrl.Stop()
	return r.ctrl.dumpState()
}

// TestReplayMatchesLiveAtEveryStep runs one scripted history — creates,
// busy heartbeats, a trim, an image replacement, a maintenance
// recomposition, a destroy and the passes that collect it — and after
// each step restarts a Controller over a copy of the state dir: its
// durable table must equal the live one. Resets sent in heartbeat
// replies show in the live Status but not in the table, because they
// are not journaled.
func TestReplayMatchesLiveAtEveryStep(t *testing.T) {
	dir := t.TempDir()
	r, _ := journaledRig(t, dir, nil, journal.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	create := func(target int, p float64) instance.ID {
		t.Helper()
		id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: target, InitialProbability: p, HeartbeatPeriod: 40 * time.Second})
		must(err)
		return id
	}
	resets := func(id instance.ID, want int) {
		t.Helper()
		if st, err := r.ctrl.Status(id); err != nil || st.Resets != want {
			t.Fatalf("Status(%d) = %+v, %v; want %d resets", id, st, err, want)
		}
	}
	img2 := testImage(t)
	img2.Version = 2
	var idA, idB instance.ID
	type step struct {
		name string
		do   func()
	}
	steps := []step{
		{"create A", func() { idA = create(3, 0.75) }},
		{"create B", func() { idB = create(2, 0.5) }},
		{"busy heartbeats", func() {
			for n := uint64(1); n <= 3; n++ {
				r.heartbeatBusy(n, idA)
			}
			r.heartbeatBusy(4, idB)
		}},
		{"resize A down", func() {
			must(r.ctrl.Resize(idA, 1))
			r.heartbeatBusy(2, idA)
			r.heartbeatBusy(3, idA)
			resets(idA, 2)
		}},
		{"recompose B", func() { must(r.ctrl.Recompose(idB, img2)) }},
		{"maintenance recomposition", func() {
			r.heartbeatIdle(9)
			r.advance(30 * time.Second)
			if st, err := r.ctrl.Status(idB); err != nil || st.Wakeups != 3 {
				t.Fatalf("B after a pass short one member = %+v, %v; want 3 wakeups", st, err)
			}
		}},
		{"destroy A", func() {
			must(r.ctrl.DestroyInstance(idA))
			resets(idA, 3)
		}},
	}
	for pass := 1; pass <= 3; pass++ {
		steps = append(steps, step{fmt.Sprintf("pass %d", pass), func() { r.advance(30 * time.Second) }})
	}
	for _, step := range steps {
		step.do()
		if live, replayed := r.ctrl.dumpState(), replayedDump(t, dir); live != replayed {
			t.Fatalf("after %s, replay diverged from live:\n--- live ---\n%s--- replayed ---\n%s", step.name, live, replayed)
		}
	}
	if _, err := r.ctrl.Status(idA); !errors.Is(err, ErrInstanceGone) {
		t.Fatalf("A after its window = %v, want ErrInstanceGone", err)
	}
	// The destroy record carries the journaled resets (the destroy's own,
	// not the trims') and the window at destroy.
	b, err := os.ReadFile(filepath.Join(dir, "state.journal"))
	must(err)
	_, recs, err := journal.DecodeJournal(b)
	must(err)
	var destroys []journal.InstanceRecord
	for _, rec := range recs {
		if rec.Op == journal.OpDestroy {
			destroys = append(destroys, rec.Inst)
		}
	}
	if len(destroys) != 1 || destroys[0].Resets != 1 || destroys[0].ResetTicks != 3 {
		t.Fatalf("destroy records %+v, want one with Resets 1 and ResetTicks 3", destroys)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// wraps reports whether err's chain holds an error reading as target:
// the store's errors are made per call, so errors.Is cannot match them.
func wraps(err, target error) bool {
	for ; err != nil; err = errors.Unwrap(err) {
		if err.Error() == target.Error() {
			return true
		}
	}
	return false
}

// TestRefusedAppendAirsNothing: a mutation the journal refuses is the
// caller's error, changes nothing and airs nothing, and spends no ID:
// the Controller restarted over the state dir issues the next one to a
// different image, and no wakeup under that ID ever aired.
func TestRefusedAppendAirsNothing(t *testing.T) {
	dir := t.TempDir()
	store := openRecoveryStore(t, dir, journal.Options{})
	head := &airLog{}
	r := newRigWith(t, func(h HeadEnd) HeadEnd { head.HeadEnd = h; return head }, func(cfg *Config) { cfg.Journal = store })
	idA, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.heartbeatBusy(1, idA)
	status, dump, aired := mustStatus(t, r.ctrl, idA), r.ctrl.dumpState(), len(head.staged)

	store.Close()
	refused := store.Append(journal.Record{Op: journal.OpResize, Inst: journal.InstanceRecord{ID: uint64(idA)}})
	if refused == nil {
		t.Fatal("a closed store took an append")
	}
	img2 := testImage(t)
	img2.Version = 2
	for _, m := range []struct {
		name string
		do   func() error
	}{
		{"create", func() error {
			_, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
			return err
		}},
		{"resize", func() error { return r.ctrl.Resize(idA, 0) }},
		{"recompose", func() error { return r.ctrl.Recompose(idA, img2) }},
		{"destroy", func() error { return r.ctrl.DestroyInstance(idA) }},
	} {
		if err := m.do(); !wraps(err, refused) {
			t.Fatalf("%s over a closed store: %v, want the store's %q", m.name, err, refused)
		}
	}
	if n := len(head.staged); n != aired {
		t.Fatalf("refused mutations handed the head-end %d updates", n-aired)
	}
	if got := mustStatus(t, r.ctrl, idA); got != status {
		t.Fatalf("status after refused mutations = %+v, want %+v", got, status)
	}
	if got := r.ctrl.dumpState(); got != dump {
		t.Fatalf("table after refused mutations:\n%s\nwant\n%s", got, dump)
	}
	r.ctrl.Stop()
	r.clk.Wait()

	r2, _ := journaledRig(t, dir, nil, journal.Options{})
	imgC := &appimage.Image{Name: "other", EntryPoint: "e", Payload: make([]byte, 2000)}
	idC, err := r2.ctrl.CreateInstance(InstanceSpec{Image: imgC, Target: 1, InitialProbability: 1})
	if err != nil || idC != idA+1 {
		t.Fatalf("restarted create = %d, %v; want id %d", idC, err, idA+1)
	}
	if seqs := head.wakeupSeqs(t, r.pub, idC); len(seqs) != 0 {
		t.Fatalf("wakeups (%d, %v) aired before the restart issued %d to another image", idC, seqs, idC)
	}
	r2.ctrl.Stop()
	r2.clk.Wait()
}

func mustStatus(t *testing.T, c *Controller, id instance.ID) InstanceStatus {
	t.Helper()
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMaintenanceJournalIsDeterministic: a maintenance pass walks the
// table in carousel order, so one history of four instances short of
// target, recomposed over three passes, writes the same journal bytes on
// every run.
func TestMaintenanceJournalIsDeterministic(t *testing.T) {
	var first []byte
	for run := 0; run < 8; run++ {
		dir := t.TempDir()
		r, s := journaledRig(t, dir, nil, journal.Options{})
		for target := 4; target < 8; target++ {
			if _, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: target, InitialProbability: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < 3; pass++ {
			for n := uint64(1); n <= 8; n++ {
				r.heartbeatIdle(n)
			}
			r.advance(30 * time.Second)
		}
		r.ctrl.Stop()
		r.clk.Wait()
		s.Close()
		b, err := os.ReadFile(filepath.Join(dir, "state.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if _, recs, err := journal.DecodeJournal(b); err != nil || len(recs) < 4+12 {
			t.Fatalf("run %d journal: %d records, %v; want 4 creates and 12 recompositions", run, len(recs), err)
		}
		if run == 0 {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("run %d wrote a different journal from run 0", run)
		}
	}
}
