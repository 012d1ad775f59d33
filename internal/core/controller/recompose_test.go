package controller

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/instance"
	"oddci/internal/journal"
)

// Recompose replaces an instance's image in place: busy members keep
// working, idle nodes never roll against the bump of an instance at
// target (probability 0), and the sequence advances so receivers
// re-evaluate.
func TestRecomposeSemantics(t *testing.T) {
	type wake struct {
		seq  uint32
		prob float64
	}
	var wakes []wake
	r := newRigWith(t, nil, func(cfg *Config) {
		cfg.OnWakeup = func(_ instance.ID, seq uint32, prob float64) {
			wakes = append(wakes, wake{seq, prob})
		}
	})
	defer r.ctrl.Stop()

	for n := uint64(1); n <= 8; n++ {
		r.heartbeatIdle(n)
	}
	id, err := r.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 4, InitialProbability: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.advance(time.Second)
	for n := uint64(1); n <= 4; n++ {
		r.heartbeatBusy(n, id)
	}

	if err := r.ctrl.Recompose(id, nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if err := r.ctrl.Recompose(99, testImage(t)); err == nil {
		t.Fatal("unknown instance accepted")
	}

	img2 := testImage(t)
	img2.Version = 2
	img2.Payload[0] ^= 0xFF
	if err := r.ctrl.Recompose(id, img2); err != nil {
		t.Fatal(err)
	}
	r.advance(time.Second) // commit the carousel update
	if w := onAirWakeup(t, r); w.Seq != 2 || w.Probability != 0 {
		t.Fatalf("on-air wakeup seq=%d p=%v after recomposing an instance at target, want 2/0", w.Seq, w.Probability)
	}
	st, err := r.ctrl.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wakeups != 2 {
		t.Fatalf("wakeups = %d, want 2 (create + recompose)", st.Wakeups)
	}
	// Busy members survive the recomposition: no reset was issued.
	if st.Busy != 4 || st.Resets != 0 {
		t.Fatalf("busy=%d resets=%d after recompose, want 4/0", st.Busy, st.Resets)
	}
	// A recomposition is a content update, not a recruitment round: the
	// OnWakeup recruitment hook fires only for the original create —
	// downstream wakeup accounting (the federation's duplicate-wakeup
	// gate) never sees recompositions.
	if len(wakes) != 1 {
		t.Fatalf("observed %d recruitment wakeups, want the create only", len(wakes))
	}
	if wakes[0].seq != 1 || wakes[0].prob != 1 {
		t.Fatalf("create wakeup seq=%d prob=%v, want 1/1", wakes[0].seq, wakes[0].prob)
	}

	// A destroyed instance refuses recomposition.
	if err := r.ctrl.DestroyInstance(id); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Recompose(id, img2); !errors.Is(err, ErrInstanceGone) {
		t.Fatalf("recompose after destroy: %v, want ErrInstanceGone", err)
	}
}

func TestRecomposeRequiresStarted(t *testing.T) {
	r := newRigWith(t, nil, nil)
	r.ctrl.Stop()
	r.clk.Wait()
	if err := r.ctrl.Recompose(1, testImage(t)); err == nil {
		t.Fatal("stopped controller accepted recompose")
	}
}

// TestRecompositionWakeupAdvancesSeq loses members after convergence so
// the maintenance loop has to recompose, and holds the loop to the rule
// PNAs dedupe on: every wakeup aired for an instance carries a sequence
// number strictly greater than the last. A fault-free run airs no
// recomposition, which is how dropping the loop's st.seq++ once passed
// every test here and in federation.
func TestRecompositionWakeupAdvancesSeq(t *testing.T) {
	dir := t.TempDir()
	store := openRecoveryStore(t, dir, journal.Options{})
	var aired []uint32
	r := newRigWith(t, nil, func(cfg *Config) {
		cfg.Journal = store
		cfg.OnWakeup = func(_ instance.ID, seq uint32, _ float64) { aired = append(aired, seq) }
	})
	id, err := r.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 3, InitialProbability: 1,
		HeartbeatPeriod: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1–3 join, 4–6 stay idle: converged, nothing to recompose.
	beat := func(members ...uint64) {
		for _, n := range members {
			r.heartbeatBusy(n, id)
		}
		for n := uint64(4); n <= 6; n++ {
			r.heartbeatIdle(n)
		}
	}
	for pass := 0; pass < 3; pass++ {
		beat(1, 2, 3)
		r.advance(30 * time.Second)
	}
	if st, _ := r.ctrl.Status(id); st.Busy != 3 || len(aired) != 1 {
		t.Fatalf("before the loss: busy=%d wakeups aired=%v, want 3 and one", st.Busy, aired)
	}
	// Nodes 2 and 3 fall silent. Past the grace window the loop sees a
	// deficit of two with idle nodes to recruit, and recomposes.
	for pass := 0; pass < 6; pass++ {
		beat(1)
		r.advance(30 * time.Second)
	}
	if len(aired) < 2 {
		t.Fatalf("no recomposition aired after losing two members: %v", aired)
	}
	for i := 1; i < len(aired); i++ {
		if aired[i] <= aired[i-1] {
			t.Fatalf("wakeup seq did not advance: %v (OnWakeup reported a repeated or older (instance, seq))", aired)
		}
	}
	latest := aired[len(aired)-1]
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("control file: %d messages, err %v", len(msgs), err)
	}
	if w, ok := msgs[0].(*control.Wakeup); !ok || w.Seq != latest {
		t.Fatalf("on-air message %+v, want the wakeup at seq %d", msgs[0], latest)
	}
	r.ctrl.Stop()
	store.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "state.journal"))
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := journal.DecodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	var journaled []uint32
	for _, rec := range recs {
		if rec.Op == journal.OpRecompose && rec.Inst.ID == uint64(id) {
			journaled = append(journaled, rec.Inst.Seq)
		}
	}
	if want := aired[1:]; !slices.Equal(journaled, want) {
		t.Fatalf("journaled recompose seqs = %v, aired %v", journaled, want)
	}
}

// onAirWakeup opens the committed control file and returns its one
// wakeup.
func onAirWakeup(t *testing.T, r *rig) *control.Wakeup {
	t.Helper()
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("control file: %d messages, err %v", len(msgs), err)
	}
	w, ok := msgs[0].(*control.Wakeup)
	if !ok {
		t.Fatalf("on-air message %T, want a wakeup", msgs[0])
	}
	return w
}

// TestRecomposeBelowTargetKeepsProbability: an instance short of its
// target keeps recruiting through a recomposition — the new wakeup airs
// the last one's probability, not 0, so a node that first hears the
// instance after the update still rolls against it — and the journal
// records that probability, so a replay of the state dir equals the
// live state.
func TestRecomposeBelowTargetKeepsProbability(t *testing.T) {
	dir := t.TempDir()
	r1, s1 := journaledRig(t, dir, nil, journal.Options{})
	id, err := r1.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 4, InitialProbability: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	r1.heartbeatBusy(1, id) // one member of four
	img2 := testImage(t)
	img2.Version = 2
	if err := r1.ctrl.Recompose(id, img2); err != nil {
		t.Fatal(err)
	}
	r1.advance(time.Second)
	if w := onAirWakeup(t, r1); w.Seq != 2 || w.Probability != 0.75 {
		t.Fatalf("on-air wakeup seq=%d p=%v below target, want 2/0.75", w.Seq, w.Probability)
	}
	want := r1.ctrl.dumpState()
	r1.ctrl.Stop()
	s1.Close()

	r2, _ := journaledRig(t, dir, nil, journal.Options{})
	defer r2.ctrl.Stop()
	if got := r2.ctrl.dumpState(); got != want {
		t.Fatalf("replay diverged from live:\n--- live ---\n%s--- replayed ---\n%s", want, got)
	}
}

// TestJournalBoundedUnderImageRecords: every Recompose journals a whole
// image, and no maintenance pass runs here, so only the append path can
// compact. 64 replacements of a 1 MiB image must leave the state dir
// under 3 MiB (the snapshot plus at most a snapshot's worth of journal),
// and the replayed state must equal the live one.
func TestJournalBoundedUnderImageRecords(t *testing.T) {
	dir := t.TempDir()
	r1, s1 := journaledRig(t, dir, nil, journal.Options{})
	big := func(v uint32) *appimage.Image {
		img := &appimage.Image{Name: "big", Version: v, EntryPoint: "e", Payload: make([]byte, 1<<20)}
		img.Payload[0] = byte(v)
		return img
	}
	id, err := r1.ctrl.CreateInstance(InstanceSpec{Image: big(1), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint32(2); v <= 65; v++ {
		if err := r1.ctrl.Recompose(id, big(v)); err != nil {
			t.Fatal(err)
		}
		if size := dirBytes(t, dir); size >= 3<<20 {
			t.Fatalf("state dir holds %d bytes after %d recompositions, want under 3 MiB", size, v-1)
		}
	}
	if err := s1.Err(); err != nil {
		t.Fatal(err)
	}
	want := r1.ctrl.dumpState()
	r1.ctrl.Stop()
	s1.Close()

	r2, _ := journaledRig(t, dir, nil, journal.Options{})
	defer r2.ctrl.Stop()
	if got := r2.ctrl.dumpState(); got != want {
		t.Fatalf("replay diverged from live:\n--- live ---\n%s--- replayed ---\n%s", want, got)
	}
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}
