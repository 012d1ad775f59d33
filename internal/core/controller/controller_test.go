package controller

import (
	"crypto/ed25519"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/middleware"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

type rig struct {
	clk   *simtime.Sim
	ctrl  *Controller
	pub   ed25519.PublicKey
	sig   *middleware.Signalling
	bcast *dsmcc.Broadcaster
	car   *dsmcc.Carousel
}

func newRig(t *testing.T) *rig {
	return newRigWith(t, nil, nil)
}

// newRigWith builds a rig whose Controller head-end is optionally
// wrapped (fault injection) and whose Config is optionally tweaked
// before construction.
func newRigWith(t *testing.T, wrap func(HeadEnd) HeadEnd, tweak func(*Config)) *rig {
	t.Helper()
	clk := simtime.NewSim(epoch)
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	sig := middleware.NewSignalling(clk, 0)
	rng := rand.New(rand.NewSource(1))
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	head := HeadEnd(bcast)
	if wrap != nil {
		head = wrap(head)
	}
	cfg := Config{
		Clock: clk, Broadcaster: head, Signalling: sig,
		Key: priv, Rng: rng,
		MaintenancePeriod: 30 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, ctrl: ctrl, pub: pub, sig: sig, bcast: bcast, car: car}
}

// advance drives the event loop a bounded amount of virtual time
// (bare Wait would run the self-rearming maintenance loop forever).
func (r *rig) advance(d time.Duration) {
	r.clk.RunUntil(r.clk.Now().Add(d))
}

func testImage(t *testing.T) *appimage.Image {
	t.Helper()
	return &appimage.Image{Name: "app", EntryPoint: "e", Payload: make([]byte, 1000)}
}

func stbProfile() instance.DeviceProfile {
	return instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
}

func (r *rig) heartbeatIdle(nodeID uint64) {
	r.ctrl.HandleHeartbeat(&control.Heartbeat{
		NodeID: nodeID, State: control.StateIdle,
		Profile: stbProfile(), SentAt: r.clk.Now(),
	})
}

func (r *rig) heartbeatBusy(nodeID uint64, inst instance.ID) *control.HeartbeatReply {
	return r.ctrl.HandleHeartbeat(&control.Heartbeat{
		NodeID: nodeID, State: control.StateBusy, InstanceID: inst,
		Profile: stbProfile(), SentAt: r.clk.Now(),
	})
}

func TestCreateInstanceValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.ctrl.CreateInstance(InstanceSpec{Target: 5}); err == nil {
		t.Fatal("missing image accepted")
	}
	if _, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t)}); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 2}); err == nil {
		t.Fatal("probability 2 accepted")
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestCreatePutsSignedWakeupOnAir(t *testing.T) {
	r := newRig(t)
	id, err := r.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 10, InitialProbability: 0.5,
		HeartbeatPeriod: 45 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.advance(5 * time.Second) // commit the carousel update
	raw := r.currentControlFile(t)
	msgs, err := control.OpenAll(raw, r.pub)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("envelopes = %d", len(msgs))
	}
	w, ok := msgs[0].(*control.Wakeup)
	if !ok {
		t.Fatalf("message %T", msgs[0])
	}
	if w.InstanceID != id || w.Probability != 0.5 || w.Seq != 1 ||
		w.HeartbeatPeriod != 45*time.Second {
		t.Fatalf("wakeup %+v", w)
	}
	// The image digest binds to the actual carousel file.
	img := r.currentFile(t, w.ImageFile)
	if _, err := appimage.Verify(img, w.ImageDigest); err != nil {
		t.Fatalf("carousel image does not verify: %v", err)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// currentControlFile reads the control file from the broadcaster's
// carousel (after commit).
func (r *rig) currentControlFile(t *testing.T) []byte { return r.currentFile(t, "oddci.config") }

func (r *rig) currentFile(t *testing.T, name string) []byte {
	t.Helper()
	var data []byte
	var derr error
	r.bcast.RequestFile(name, dsmcc.BlockCache, nil, func(d []byte, _ time.Time, err error) {
		data, derr = d, err
	})
	r.advance(10 * time.Second)
	if derr != nil {
		t.Fatalf("read %s: %v", name, derr)
	}
	return data
}

func TestAutoProbabilityFromIdlePopulation(t *testing.T) {
	r := newRig(t)
	for i := uint64(1); i <= 100; i++ {
		r.heartbeatIdle(i)
	}
	if _, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 20}); err != nil {
		t.Fatal(err)
	}
	r.advance(5 * time.Second)
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil {
		t.Fatal(err)
	}
	w := msgs[0].(*control.Wakeup)
	// p = safety × 20/100 = 1.2 × 0.2 = 0.24.
	if w.Probability < 0.23 || w.Probability > 0.25 {
		t.Fatalf("auto probability = %v, want ≈0.24", w.Probability)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestHeartbeatMembershipAndStatus(t *testing.T) {
	r := newRig(t)
	id, _ := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 3, InitialProbability: 1})
	for i := uint64(1); i <= 3; i++ {
		if reply := r.heartbeatBusy(i, id); reply.Command != control.CmdNone {
			t.Fatalf("node %d got %v", i, reply.Command)
		}
	}
	st, err := r.ctrl.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Busy != 3 || st.Target != 3 {
		t.Fatalf("status %+v", st)
	}
	idle, busy := r.ctrl.Population()
	if idle != 0 || busy != 3 {
		t.Fatalf("population = %d/%d", idle, busy)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestStrayBusyNodeGetsReset(t *testing.T) {
	r := newRig(t)
	if reply := r.heartbeatBusy(9, 12345); reply.Command != control.CmdReset {
		t.Fatalf("stray member reply = %v, want reset", reply.Command)
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestResizeTrimsViaHeartbeatReplies(t *testing.T) {
	r := newRig(t)
	id, _ := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 5, InitialProbability: 1})
	for i := uint64(1); i <= 5; i++ {
		r.heartbeatBusy(i, id)
	}
	if err := r.ctrl.Resize(id, 2); err != nil {
		t.Fatal(err)
	}
	resets := 0
	for i := uint64(1); i <= 5; i++ {
		if r.heartbeatBusy(i, id).Command == control.CmdReset {
			resets++
		}
	}
	if resets != 3 {
		t.Fatalf("resets = %d, want 3", resets)
	}
	st, _ := r.ctrl.Status(id)
	if st.Busy != 2 || st.Trimming != 0 {
		t.Fatalf("after trim: %+v", st)
	}
	if err := r.ctrl.Resize(id, -1); err == nil {
		t.Fatal("negative resize accepted")
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestDestroyPutsResetOnAirAndRemovesImage(t *testing.T) {
	r := newRig(t)
	id, _ := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 2, InitialProbability: 1})
	r.advance(5 * time.Second)
	if err := r.ctrl.DestroyInstance(id); err != nil {
		t.Fatal(err)
	}
	r.advance(5 * time.Second)
	msgs, err := control.OpenAll(r.currentControlFile(t), r.pub)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("envelopes = %d", len(msgs))
	}
	if _, ok := msgs[0].(*control.Reset); !ok {
		t.Fatalf("message %T, want reset", msgs[0])
	}
	// Busy members of the destroyed instance are reset via replies too.
	if reply := r.heartbeatBusy(1, id); reply.Command != control.CmdReset {
		t.Fatal("member of destroyed instance not reset")
	}
	if err := r.ctrl.DestroyInstance(id); err == nil {
		t.Fatal("double destroy accepted")
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

func TestMaintenanceRebroadcastsOnDeficit(t *testing.T) {
	r := newRig(t)
	// 10 idle nodes known; instance wants 5 but nobody joined.
	var done bool
	r.clk.Go(func() {
		for i := uint64(1); i <= 10; i++ {
			r.heartbeatIdle(i)
		}
		id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 5, InitialProbability: 0.01})
		if err != nil {
			t.Error(err)
			return
		}
		// Idle nodes keep heartbeating so they stay in the idle view.
		for round := 0; round < 4; round++ {
			r.clk.Sleep(35 * time.Second)
			for i := uint64(1); i <= 10; i++ {
				r.heartbeatIdle(i)
			}
		}
		st, err := r.ctrl.Status(id)
		if err != nil {
			t.Error(err)
			return
		}
		if st.Wakeups < 2 {
			t.Errorf("wakeups = %d, want rebroadcasts", st.Wakeups)
		}
		done = true
		r.ctrl.Stop()
	})
	r.clk.Wait()
	if !done {
		t.Fatal("scenario did not finish")
	}
}

func TestStaleNodesExpire(t *testing.T) {
	r := newRig(t)
	id, _ := r.ctrl.CreateInstance(InstanceSpec{
		Image: testImage(t), Target: 2, InitialProbability: 1,
		HeartbeatPeriod: 30 * time.Second,
	})
	var busyAfter int
	r.clk.Go(func() {
		r.heartbeatBusy(1, id)
		r.heartbeatBusy(2, id)
		// Node 2 goes silent; node 1 keeps reporting.
		for i := 0; i < 8; i++ {
			r.clk.Sleep(30 * time.Second)
			r.heartbeatBusy(1, id)
		}
		st, err := r.ctrl.Status(id)
		if err != nil {
			t.Error(err)
			return
		}
		busyAfter = st.Busy
		r.ctrl.Stop()
	})
	r.clk.Wait()
	if busyAfter != 1 {
		t.Fatalf("busy = %d after silence, want 1 (node 2 expired)", busyAfter)
	}
}

func TestStatusUnknownInstance(t *testing.T) {
	r := newRig(t)
	if _, err := r.ctrl.Status(99); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if err := r.ctrl.Resize(99, 1); err == nil {
		t.Fatal("resize of unknown instance accepted")
	}
	if err := r.ctrl.DestroyInstance(99); err == nil {
		t.Fatal("destroy of unknown instance accepted")
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// Concurrent heartbeats from many sessions while instances churn: the
// shard/global locking protocol must hold under the race detector.
func TestConcurrentHeartbeatsRaceStress(t *testing.T) {
	r := newRig(t)
	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 8, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				nodeID := uint64(g*1000 + i%50 + 1)
				state := control.StateIdle
				inst := instance.ID(0)
				if i%3 == 0 {
					state = control.StateBusy
					inst = id
				}
				r.ctrl.HandleHeartbeat(&control.Heartbeat{
					NodeID: nodeID, State: state, InstanceID: inst,
					Profile: stbProfile(), SentAt: r.clk.Now(),
				})
			}
		}()
	}
	// Concurrent control-plane churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.ctrl.Resize(id, 4+i%8)
			r.ctrl.Population()
			r.ctrl.Status(id)
		}
	}()
	wg.Wait()
	if r.ctrl.HeartbeatsSeen() != 8*500 {
		t.Fatalf("heartbeats seen = %d", r.ctrl.HeartbeatsSeen())
	}
	r.ctrl.Stop()
	r.clk.Wait()
}

// TestHeartbeatReplyAllocatesNothing: a heartbeat with no news for its
// node — a busy member reporting again, an idle node refreshing — is
// answered with the shared read-only reply, so consolidating it makes
// no heap object. A reply that carries a command still works.
func TestHeartbeatReplyAllocatesNothing(t *testing.T) {
	r := newRig(t)
	defer r.ctrl.Stop()
	id, err := r.ctrl.CreateInstance(InstanceSpec{Image: testImage(t), Target: 1, InitialProbability: 1})
	if err != nil {
		t.Fatal(err)
	}
	busy := &control.Heartbeat{NodeID: 1, State: control.StateBusy, InstanceID: id, Profile: stbProfile(), SentAt: r.clk.Now()}
	idle := &control.Heartbeat{NodeID: 2, State: control.StateIdle, Profile: stbProfile(), SentAt: r.clk.Now()}
	for name, hb := range map[string]*control.Heartbeat{"busy": busy, "idle": idle} {
		r.ctrl.HandleHeartbeat(hb) // first report: the node's table entry
		if n := testing.AllocsPerRun(100, func() { r.ctrl.HandleHeartbeat(hb) }); n != 0 {
			t.Errorf("repeated %s heartbeat: %v allocations, want 0", name, n)
		}
		if got := r.ctrl.HandleHeartbeat(hb); *got != (control.HeartbeatReply{Command: control.CmdNone}) {
			t.Errorf("repeated %s heartbeat got %+v, want no news", name, got)
		}
	}
	if err := r.ctrl.Resize(id, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.ctrl.HandleHeartbeat(busy); got.Command != control.CmdReset {
		t.Fatalf("trimmed member got %+v, want a reset", got)
	}
}
