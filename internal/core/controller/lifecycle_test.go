package controller

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/dsmcc"
	"oddci/internal/journal"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/span"
)

// flakyHead wraps a HeadEnd so carousel updates fail whenever fail
// says so: a deterministic netsim.FaultPlan's Next, or a burst's. The
// first airing and Check are never injected: the tests target
// steady-state refresh, not bring-up or refused content.
type flakyHead struct {
	HeadEnd
	fail  func() bool
	aired bool
}

func (f *flakyHead) Update(files []dsmcc.File) error {
	if f.aired && f.fail() {
		return errors.New("injected head-end update failure")
	}
	f.aired = true
	return f.HeadEnd.Update(files)
}

func newFlakyRig(t *testing.T, fail func() bool, tweak func(*Config)) *rig {
	t.Helper()
	return newRigWith(t, func(h HeadEnd) HeadEnd { return &flakyHead{HeadEnd: h, fail: fail} }, tweak)
}

// burst fails exactly the next n head-end updates once armed with n.
type burst struct{ n atomic.Int32 }

func (b *burst) next() bool { return b.n.Add(-1) >= 0 }

// onAirFiles counts committed carousel files (xlet + control file +
// one image per live instance).
func (r *rig) onAirFiles() int {
	l, err := r.car.Layout()
	if err != nil {
		return 0
	}
	return len(l.Entries)
}

func TestDestroyedInstanceGCdAfterRetransmitWindow(t *testing.T) {
	var spans *span.Collector
	r := newRigWith(t, nil, func(cfg *Config) {
		cfg.ResetRetransmitTicks = 2
		spans = span.NewCollector(span.Config{Clock: cfg.Clock})
		cfg.Spans = spans
	})
	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 4, InitialProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r.advance(5 * time.Second)
	if got := r.onAirFiles(); got != 3 {
		t.Fatalf("on-air files with one live instance = %d, want 3", got)
	}
	if err := r.ctrl.DestroyInstance(id); err != nil {
		t.Fatal(err)
	}
	// During the retransmission window the reset envelope is on air and
	// Status reports the destroyed state with zeroed gauges.
	r.advance(5 * time.Second)
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("envelopes during window = %d, want 1 reset", len(msgs))
	}
	if rst, ok := msgs[0].(*control.Reset); !ok || rst.InstanceID != id {
		t.Fatalf("on-air message %T %+v, want reset for %d", msgs[0], msgs[0], id)
	}
	st, err := r.ctrl.Status(id)
	if err != nil {
		t.Fatalf("Status during window: %v", err)
	}
	if !st.Destroyed || st.Busy != 0 || st.Target != 0 || st.Trimming != 0 {
		t.Fatalf("destroyed status not zeroed: %+v", st)
	}
	// Two maintenance passes (2 × 30s) exhaust the window; the instance
	// is then GC'd and the head-end returns to baseline.
	r.advance(2 * time.Minute)
	if raw := r.currentControlFile(t); len(raw) != 0 {
		t.Fatalf("control file after GC = %d bytes, want 0", len(raw))
	}
	if got := r.onAirFiles(); got != 2 {
		t.Fatalf("on-air files after GC = %d, want 2 (xlet + config)", got)
	}
	if _, err := r.ctrl.Status(id); !errors.Is(err, ErrInstanceGone) {
		t.Fatalf("Status after GC = %v, want ErrInstanceGone", err)
	}
	if _, err := r.ctrl.Status(id + 100); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("Status of never-issued ID = %v, want ErrUnknownInstance", err)
	}
	if err := r.ctrl.Resize(id, 9); !errors.Is(err, ErrInstanceGone) {
		t.Fatalf("Resize after GC = %v, want ErrInstanceGone", err)
	}
	// The instance's whole life reads off the span timeline in order,
	// and every fact of it hangs in the wakeup's own trace.
	var names []string
	for _, d := range spans.Timeline() {
		names = append(names, d.Name)
	}
	if got, want := strings.Join(names, " "), "wakeup create destroy gc"; got != want {
		t.Fatalf("timeline = %q, want %q", got, want)
	}
	if traces := spans.Traces(); len(traces) != 1 || !traces[0].Connected() || len(traces[0].Spans) != 4 {
		t.Fatalf("lifecycle events left the wakeup trace:\n%s", spans.RenderTimeline(0))
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestRefreshRetryBacksOffAndRecovers(t *testing.T) {
	var plan burst
	var spans *span.Collector
	r := newFlakyRig(t, plan.next, func(cfg *Config) {
		cfg.RefreshRetryBase = 2 * time.Second
		cfg.RefreshRetryMax = 8 * time.Second
		// Sampling off: lifecycle events are recorded all the same.
		spans = span.NewCollector(span.Config{Clock: cfg.Clock, SampleRate: -1})
		cfg.Spans = spans
	})
	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r.advance(5 * time.Second)

	// The next three head-end updates fail; DestroyInstance must still
	// commit the destruction and hand the broadcast to the retry path.
	plan.n.Store(3)
	if err := r.ctrl.DestroyInstance(id); err != nil {
		t.Fatalf("DestroyInstance with failing head-end: %v", err)
	}
	if pending, attempts := r.ctrl.RefreshPending(); !pending || attempts != 1 {
		t.Fatalf("pending=%v attempts=%d after failed destroy refresh", pending, attempts)
	}
	st, err := r.ctrl.Status(id)
	if err != nil || !st.Destroyed {
		t.Fatalf("destruction did not commit: %+v %v", st, err)
	}
	// Backoff: retries at +2s and +6s also fail; the +14s retry (8s cap
	// would give 2,4,8) succeeds. Well before the first maintenance
	// pass at 30s, so the recovery is the timer's doing.
	r.advance(20 * time.Second)
	if pending, _ := r.ctrl.RefreshPending(); pending {
		t.Fatal("refresh still pending after retries should have drained")
	}
	tl := spans.RenderTimeline(0)
	if retries, recovered := strings.Count(tl, "refresh-retry"), strings.Count(tl, "refresh-ok"); retries != 3 || recovered != 1 {
		t.Fatalf("retry events = %d, recovered = %d; want 3 and 1:\n%s", retries, recovered, tl)
	}
	if !strings.Contains(tl, "wakeup") || !strings.Contains(tl, "attempt=3") {
		t.Fatalf("unsampled wakeup or retry detail missing from the timeline:\n%s", tl)
	}
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("envelopes after recovery = %d, want 1", len(msgs))
	}
	if rst, ok := msgs[0].(*control.Reset); !ok || rst.InstanceID != id {
		t.Fatalf("on-air message %T, want reset for %d", msgs[0], id)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// TestCreateCommitsWhenStagingFails: a create commits like every other
// mutation. The head-end refusing the staging leaves the instance
// journaled and the refresh pending, and the backoff retry airs its
// wakeup with no second create.
func TestCreateCommitsWhenStagingFails(t *testing.T) {
	var plan burst
	dir := t.TempDir()
	store := openRecoveryStore(t, dir, journal.Options{})
	r := newFlakyRig(t, plan.next, func(cfg *Config) {
		cfg.Journal = store
		cfg.RefreshRetryBase = 2 * time.Second
	})
	plan.n.Store(1)
	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 3, InitialProbability: 0.5})
	if err != nil {
		t.Fatalf("CreateInstance with failing head-end: %v", err)
	}
	if pending, attempts := r.ctrl.RefreshPending(); !pending || attempts != 1 {
		t.Fatalf("pending=%v attempts=%d after a refused staging", pending, attempts)
	}
	durable, err := openRecoveryStore(t, dir, journal.Options{}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec := durable.Instances[uint64(id)]; rec == nil || rec.Seq != 1 || durable.NextID != uint64(id)+1 {
		t.Fatalf("journal before airing: next id %d, instance %d record %+v", durable.NextID, id, rec)
	}
	if raw := r.currentControlFile(t); len(raw) != 0 {
		t.Fatalf("control file on air before the retry = %d bytes, want 0", len(raw))
	}
	r.advance(5 * time.Second)
	if pending, _ := r.ctrl.RefreshPending(); pending {
		t.Fatal("refresh still pending after the retry")
	}
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("envelopes = %d, want 1", len(msgs))
	}
	if w, ok := msgs[0].(*control.Wakeup); !ok || w.InstanceID != id || w.Seq != 1 {
		t.Fatalf("on-air message %T %+v, want wakeup (%d, 1)", msgs[0], msgs[0], id)
	}
	if st, err := r.ctrl.Status(id); err != nil || st.Wakeups != 1 {
		t.Fatalf("status after the retry = %+v, %v", st, err)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// TestRefusedContentChangesNothing: content the head-end can never air
// (an image past the carousel's 65,535 blocks) is the caller's error at
// create and at recompose, not a retry, since every later update would
// carry it. Nothing is journaled, no ID is spent, no refresh is
// pending, later creates and destroys air, and a Controller restarted
// over the journal comes up airing without a retry.
func TestRefusedContentChangesNothing(t *testing.T) {
	const blockSize = 16
	dir := t.TempDir()
	store := openRecoveryStore(t, dir, journal.Options{})
	r := newRigBlocks(t, blockSize, nil, func(cfg *Config) { cfg.Journal = store })
	big := &appimage.Image{Name: "big", EntryPoint: "e", Payload: make([]byte, blockSize<<16)}
	idA, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ctrl.CreateInstance(InstanceSpec{Image: big, Target: 1, InitialProbability: 1}); err == nil {
		t.Fatal("created an instance whose image the carousel cannot carry")
	}
	if err := r.ctrl.Recompose(idA, big); err == nil {
		t.Fatal("recomposed to an image the carousel cannot carry")
	}
	idC, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idC != idA+1 {
		t.Fatalf("create after a refused one got id %d, want %d: a refused create spends no ID", idC, idA+1)
	}
	if err := r.ctrl.DestroyInstance(idC); err != nil {
		t.Fatal(err)
	}
	if pending, attempts := r.ctrl.RefreshPending(); pending {
		t.Fatalf("refresh pending after %d attempts", attempts)
	}
	r.advance(5 * time.Second)
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("envelopes on air = %d, want A's wakeup and C's reset", len(msgs))
	}
	if w, ok := msgs[0].(*control.Wakeup); !ok || w.InstanceID != idA || w.Seq != 1 {
		t.Fatalf("first envelope %T %+v, want wakeup (%d, 1)", msgs[0], msgs[0], idA)
	}
	if rs, ok := msgs[1].(*control.Reset); !ok || rs.InstanceID != idC {
		t.Fatalf("second envelope %T %+v, want C's reset", msgs[1], msgs[1])
	}
	r.ctrl.Stop()
	r.clk.Wait()
	store.Close()

	r2 := newRigBlocks(t, blockSize, nil, func(cfg *Config) { cfg.Journal = openRecoveryStore(t, dir, journal.Options{}) })
	if pending, _ := r2.ctrl.RefreshPending(); pending {
		t.Fatal("restarted Controller is retrying its first airing")
	}
	if st, err := r2.ctrl.Status(idA); err != nil || st.Wakeups != 1 {
		t.Fatalf("recovered A = %+v, %v; want its one wakeup", st, err)
	}
	if st, err := r2.ctrl.Status(idC); err != nil || !st.Destroyed {
		t.Fatalf("recovered C = %+v, %v; want destroyed", st, err)
	}
	r2.ctrl.Stop()
	r2.clk.Wait()
}

// setLog wraps a HeadEnd and keeps the last file set it was asked to
// check and the last one it was handed to air.
type setLog struct {
	HeadEnd
	checked, aired []dsmcc.File
}

func (h *setLog) Check(files []dsmcc.File) error {
	h.checked = files
	return h.HeadEnd.Check(files)
}

func (h *setLog) Update(files []dsmcc.File) error {
	h.aired = files
	return h.HeadEnd.Update(files)
}

// TestCheckSeesTheSetThatAirs: CreateInstance and Recompose check
// exactly the set their commit airs, the new instance's wakeup or the
// replacement's new one included, byte for byte.
func TestCheckSeesTheSetThatAirs(t *testing.T) {
	head := &setLog{}
	r := newRigWith(t, func(h HeadEnd) HeadEnd { head.HeadEnd = h; return head }, nil)
	same := func(what string) {
		t.Helper()
		if len(head.checked) != len(head.aired) {
			t.Fatalf("%s checked %d files and aired %d", what, len(head.checked), len(head.aired))
		}
		for i, f := range head.checked {
			if a := head.aired[i]; f.Name != a.Name || !bytes.Equal(f.Data, a.Data) || !slices.Equal(f.Chunks, a.Chunks) {
				t.Fatalf("%s checked another %s than it aired", what, f.Name)
			}
		}
	}
	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	same("create")
	img2 := testImage(t)
	img2.Version = 2
	if err := r.ctrl.Recompose(id, img2); err != nil {
		t.Fatal(err)
	}
	same("recompose")
	r.ctrl.Stop()
	r.clk.Wait()
}

// refuseAll is a head-end that can air nothing.
type refuseAll struct{}

func (refuseAll) Check([]dsmcc.File) error  { return errors.New("refused") }
func (refuseAll) Update([]dsmcc.File) error { return errors.New("refused") }

// TestStartRefusedContentIsAnError: a head-end that can never air the
// bring-up contents fails Start, and the Controller stays unstarted,
// rather than retrying in the background with nothing on air.
func TestStartRefusedContentIsAnError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Clock: simtime.NewSim(epoch), Broadcaster: refuseAll{}, Key: priv, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("Start over a head-end that refuses its contents succeeded")
	}
	if _, err := c.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1}); err == nil {
		t.Fatal("created an instance on a Controller whose Start failed")
	}
}

func TestDestroyCreateCyclesReturnToBaseline(t *testing.T) {
	r := newRigWith(t, nil, func(cfg *Config) { cfg.ResetRetransmitTicks = 1 })
	r.advance(time.Second)
	baseBytes, baseFiles, _, _ := r.ctrl.ContentStats()
	for cycle := 0; cycle < 5; cycle++ {
		id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 0.5})
		if err != nil {
			t.Fatalf("cycle %d create: %v", cycle, err)
		}
		r.advance(5 * time.Second)
		if err := r.ctrl.DestroyInstance(id); err != nil {
			t.Fatalf("cycle %d destroy: %v", cycle, err)
		}
		// One maintenance pass burns the retransmission tick, the next
		// GC pass collects; 90s covers both from any phase offset.
		r.advance(90 * time.Second)
		bytes, files, live, onAir := r.ctrl.ContentStats()
		if bytes != baseBytes || files != baseFiles || live != 0 || onAir != 0 {
			t.Fatalf("cycle %d did not return to baseline: bytes=%d files=%d live=%d onAir=%d",
				cycle, bytes, files, live, onAir)
		}
		if got := r.onAirFiles(); got != 2 {
			t.Fatalf("cycle %d on-air files = %d, want 2", cycle, got)
		}
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// TestChurnWithInjectedFaultsStaysBounded cycles create→destroy under
// probabilistic head-end failures and checks the control plane never
// accumulates state: live instances and on-air resets stay bounded
// during the run and drain to zero afterwards.
func TestChurnWithInjectedFaultsStaysBounded(t *testing.T) {
	plan := netsim.NewFaultPlan(rand.New(rand.NewSource(11)), 0.3, 3)
	r := newFlakyRig(t, plan.Next, func(cfg *Config) {
		cfg.ResetRetransmitTicks = 2
		cfg.RefreshRetryBase = 2 * time.Second
		cfg.RefreshRetryMax = 8 * time.Second
	})
	for cycle := 0; cycle < 120; cycle++ {
		id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 0.5})
		if err != nil {
			t.Fatalf("cycle %d create: %v", cycle, err)
		}
		r.advance(10 * time.Second)
		if err := r.ctrl.DestroyInstance(id); err != nil {
			t.Fatalf("cycle %d destroy: %v", cycle, err)
		}
		r.advance(10 * time.Second)
		_, files, live, onAir := r.ctrl.ContentStats()
		if live > 1 || onAir > 4 || files > 3+4 {
			t.Fatalf("cycle %d state unbounded: files=%d live=%d onAir=%d", cycle, files, live, onAir)
		}
	}
	// Quiet period: retries and the GC window drain everything.
	r.advance(5 * time.Minute)
	bytes, files, live, onAir := r.ctrl.ContentStats()
	if bytes != 0 || files != 2 || live != 0 || onAir != 0 {
		t.Fatalf("post-churn state: bytes=%d files=%d live=%d onAir=%d", bytes, files, live, onAir)
	}
	if raw := r.currentControlFile(t); len(raw) != 0 {
		t.Fatalf("on-air control file after drain = %d bytes", len(raw))
	}
	injected, failed := plan.Stats()
	if failed == 0 {
		t.Fatalf("fault plan injected %d updates but failed none; test exercised nothing", injected)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}
