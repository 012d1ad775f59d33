package federation

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"oddci/internal/analytic"
	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/journal"
	"oddci/internal/middleware"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

var epoch = time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC)

// buildCtrl assembles one journal-backed started Controller over its
// own broadcast stack — both the initial construction and the Failover
// rebuild path use it, mirroring system.RestartController.
func buildCtrl(clk *simtime.Sim, dir string, seed int64) (*controller.Controller, *journal.Store, error) {
	store, err := journal.Open(dir, journal.Options{NoSync: true, Clock: clk})
	if err != nil {
		return nil, nil, err
	}
	car, err := dsmcc.NewCarousel(0x300, 0)
	if err != nil {
		return nil, nil, err
	}
	bcast, err := dsmcc.NewBroadcaster(clk, car, 1e6)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := controller.New(controller.Config{
		Clock: clk, Broadcaster: bcast,
		Signalling: middleware.NewSignalling(clk, 0),
		Key:        priv, Rng: rng, Journal: store,
	})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	if err := ctrl.Start(); err != nil {
		store.Close()
		return nil, nil, err
	}
	return ctrl, store, nil
}

// newTestFed builds an n-shard federation on one sim clock. Each shard
// gets its own state dir; the Rebuild closure reopens it.
func newTestFed(t *testing.T, clk *simtime.Sim, n int, reg *obs.Registry) (*Federation, []*journal.Store) {
	t.Helper()
	shards := make([]Shard, n)
	stores := make([]*journal.Store, n)
	for i := 0; i < n; i++ {
		dir := t.TempDir()
		seed := int64(100 + i)
		ctrl, store, err := buildCtrl(clk, dir, seed)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = store
		shards[i] = Shard{
			ID:   ShardID(i),
			Ctrl: ctrl,
			Rebuild: func() (*controller.Controller, error) {
				c, _, err := buildCtrl(clk, dir, seed+1000)
				return c, err
			},
		}
	}
	fed, err := New(Config{Shards: shards, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return fed, stores
}

// feedIdle reports idle heartbeats for nodes [from, to) to a shard.
func feedIdle(t *testing.T, clk *simtime.Sim, fed *Federation, s ShardID, from, to uint64) {
	t.Helper()
	ctrl, err := fed.Controller(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := from; i < to; i++ {
		ctrl.HandleHeartbeat(&control.Heartbeat{
			NodeID: i, State: control.StateIdle,
			Profile: instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
			SentAt:  clk.Now(),
		})
	}
}

func testSpec() controller.InstanceSpec {
	return controller.InstanceSpec{
		Image:  &appimage.Image{Name: "a", EntryPoint: "e", Payload: []byte{1}},
		Target: 8, InitialProbability: 1,
	}
}

func stopAll(t *testing.T, clk *simtime.Sim, fed *Federation, stores []*journal.Store) {
	t.Helper()
	for _, s := range fed.Shards() {
		if ctrl, err := fed.Controller(s); err == nil {
			ctrl.Stop()
		}
	}
	for _, st := range stores {
		st.Close()
	}
	clk.Wait()
}

func TestFederationCreateSplitsByIdle(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	fed, stores := newTestFed(t, clk, 3, reg)
	defer stopAll(t, clk, fed, stores)

	feedIdle(t, clk, fed, 0, 1, 31)    // 30 idle
	feedIdle(t, clk, fed, 1, 100, 110) // 10 idle
	feedIdle(t, clk, fed, 2, 200, 210) // 10 idle

	spec := testSpec()
	spec.Target = 10
	inst, err := fed.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	parts := inst.Parts()
	st0, _ := mustCtrl(t, fed, 0).Status(parts[0])
	if st0.Target < 5 {
		t.Fatalf("heaviest shard received %d of 10", st0.Target)
	}
	agg, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Target != 10 {
		t.Fatalf("aggregate target %d, want 10", agg.Target)
	}
	// Skew histogram saw the create.
	if v, ok := reg.Value("oddci_federation_split_skew"); !ok || v != 1 {
		t.Fatalf("split skew histogram count = %v, %v", v, ok)
	}
	// Per-shard gauges render.
	if v, ok := reg.Value("oddci_federation_shard_0_idle"); !ok || v < 0 {
		t.Fatalf("shard 0 idle gauge = %v, %v", v, ok)
	}
	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func mustCtrl(t *testing.T, fed *Federation, s ShardID) *controller.Controller {
	t.Helper()
	ctrl, err := fed.Controller(s)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestFederationRouteConsistentWithRing(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 4, nil)
	defer stopAll(t, clk, fed, stores)

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		id := rng.Uint64()
		s, ctrl, err := fed.Route(id)
		if err != nil {
			t.Fatal(err)
		}
		if s != fed.Ring().Owner(id) {
			t.Fatalf("route disagrees with ring for %d", id)
		}
		if want, _ := fed.Controller(s); ctrl != want {
			t.Fatal("route returned wrong controller")
		}
	}
	// Routing to a killed shard fails until failover. Stop the victim's
	// controller first — the crash we model takes its process down.
	victim := fed.Ring().Owner(42)
	mustCtrl(t, fed, victim).Stop()
	if err := fed.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Route(42); !errors.Is(err, ErrShardDown) {
		t.Fatalf("route to killed shard = %v, want ErrShardDown", err)
	}
	if _, err := fed.Failover(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Route(42); err != nil {
		t.Fatalf("route after failover = %v", err)
	}
}

// TestFederationFailoverReadopts is the core correctness property: a
// killed shard's controller is rebuilt from its journal, surviving
// members are re-adopted from their next heartbeat inside the grace
// window, and no wakeup is re-broadcast (zero duplicate wakeups).
func TestFederationFailoverReadopts(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	fed, stores := newTestFed(t, clk, 2, reg)
	defer stopAll(t, clk, fed, stores)

	feedIdle(t, clk, fed, 0, 1, 21)
	feedIdle(t, clk, fed, 1, 100, 120)
	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	parts := inst.Parts()

	// Members join on shard 0.
	c0 := mustCtrl(t, fed, 0)
	for n := uint64(1); n <= 4; n++ {
		c0.HandleHeartbeat(&control.Heartbeat{
			NodeID: n, State: control.StateBusy, InstanceID: parts[0], SentAt: clk.Now(),
		})
	}
	before, err := c0.Status(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if before.Busy != 4 {
		t.Fatalf("pre-kill busy %d, want 4", before.Busy)
	}

	// Crash shard 0: stop the controller and release its journal (the
	// process died; the state dir survived).
	if err := fed.Kill(0); err != nil {
		t.Fatal(err)
	}
	c0.Stop()
	stores[0].Close()
	if _, err := inst.Status(); !errors.Is(err, ErrShardDown) {
		t.Fatalf("status during outage = %v, want ErrShardDown", err)
	}

	adopter, err := fed.Failover(0)
	if err != nil {
		t.Fatal(err)
	}
	if adopter != 1 {
		t.Fatalf("adopter = %d, want ring successor 1", adopter)
	}
	c0r := mustCtrl(t, fed, 0)
	if c0r == c0 {
		t.Fatal("failover did not swap the controller")
	}
	if !c0r.Recovered() {
		t.Fatal("rebuilt controller does not report Recovered")
	}

	// The journal restored the part: same target, and crucially the
	// wakeup count did NOT advance — recovery re-adopts, never re-airs.
	after, err := c0r.Status(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if after.Target != before.Target {
		t.Fatalf("target %d after failover, want %d", after.Target, before.Target)
	}
	if after.Wakeups != before.Wakeups {
		t.Fatalf("wakeups %d after failover, want %d (duplicate wakeup!)", after.Wakeups, before.Wakeups)
	}

	// Surviving members re-adopt via their next heartbeat.
	for n := uint64(1); n <= 4; n++ {
		c0r.HandleHeartbeat(&control.Heartbeat{
			NodeID: n, State: control.StateBusy, InstanceID: parts[0], SentAt: clk.Now(),
		})
	}
	re, err := c0r.Status(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if re.Busy != 4 {
		t.Fatalf("re-adopted busy %d, want 4", re.Busy)
	}
	if v, _ := reg.Value("oddci_federation_failovers_total"); v != 1 {
		t.Fatalf("failover counter = %v, want 1", v)
	}
	// Instance handle works again without rebinding.
	if _, err := inst.Status(); err != nil {
		t.Fatalf("status after failover = %v", err)
	}
}

// TestFederationRebalance: a shard that cannot recruit (no idle nodes
// left) sheds the uncoverable deficit to ring neighbors with surplus.
func TestFederationRebalance(t *testing.T) {
	clk := simtime.NewSim(epoch)
	reg := obs.NewRegistry()
	fed, stores := newTestFed(t, clk, 2, reg)
	defer stopAll(t, clk, fed, stores)

	// Shard 0: 4 idle. Shard 1: 20 idle. Create lands 4+? split…
	feedIdle(t, clk, fed, 0, 1, 5)
	feedIdle(t, clk, fed, 1, 100, 120)
	spec := testSpec()
	spec.Target = 12
	inst, err := fed.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	parts := inst.Parts()
	st0, err := mustCtrl(t, fed, 0).Status(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if st0.Target == 0 {
		t.Skip("shard 0 received no share")
	}

	// Well past two carousel cycles nothing joined on shard 0, and its
	// idle pool is gone (nodes powered off): the deficit is uncoverable.
	c0 := mustCtrl(t, fed, 0)
	clk.RunUntil(clk.Now().Add(10 * time.Minute)) // heartbeats go stale → idle pools drain
	// Shard 1's devices are still on air; shard 0's never came back.
	feedIdle(t, clk, fed, 1, 120, 140)
	params := analyticParams()
	moved, err := fed.Rebalance(params, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("rebalance moved nothing despite uncoverable deficit")
	}
	after0, err := c0.Status(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if after0.Target >= st0.Target {
		t.Fatalf("deficit shard target %d did not shrink from %d", after0.Target, st0.Target)
	}
	agg, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Target != 12 {
		t.Fatalf("aggregate target %d after rebalance, want 12", agg.Target)
	}
	if v, _ := reg.Value("oddci_federation_rebalance_moved_target_total"); int(v) != moved {
		t.Fatalf("moved counter %v, want %d", v, moved)
	}
}

// TestFederationChurnStress hammers a 4-shard federation with
// concurrent heartbeats, a kill/failover cycle, and rebalance passes —
// it exists to run under -race in the full gate.
func TestFederationChurnStress(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 4, obs.NewRegistry())
	defer stopAll(t, clk, fed, stores)

	for s := 0; s < 4; s++ {
		feedIdle(t, clk, fed, ShardID(s), uint64(s*1000+1), uint64(s*1000+51))
	}
	inst, err := fed.Create(controller.InstanceSpec{
		Image: testSpec().Image, Target: 40, InitialProbability: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				id := uint64(g*1000 + 1 + rng.Intn(50))
				if _, ctrl, err := fed.Route(id); err == nil {
					ctrl.HandleHeartbeat(&control.Heartbeat{
						NodeID: id, State: control.StateIdle,
						Profile: instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100},
						SentAt:  clk.Now(),
					})
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			fed.Rebalance(analyticParams(), float64(i), 0)
			inst.Status()
		}
	}()

	// Kill and fail over shard 2 while traffic flows.
	c2 := mustCtrl(t, fed, 2)
	if err := fed.Kill(2); err != nil {
		t.Fatal(err)
	}
	c2.Stop()
	if _, err := fed.Failover(2); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if _, err := inst.Status(); err != nil {
		t.Fatalf("status after stress = %v", err)
	}
}

// analyticParams is a small carousel model: a 10 Mbit image over a
// 1 Mbit/s channel (C = 10 s, ramp complete by 20 s).
func analyticParams() analytic.Params {
	return analytic.Params{ImageBits: 10e6, Beta: 1e6}
}

// TestFedInstanceResizeRecompose exercises the aggregate mutation
// surface: Resize re-splits over live shards (growing a part on a
// shard that had none), Recompose rides every part's carousel, and
// both refuse a destroyed instance.
func TestFedInstanceResizeRecompose(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 2, nil)
	defer stopAll(t, clk, fed, stores)

	// All idle capacity on shard 0: the create lands there alone.
	feedIdle(t, clk, fed, 0, 1, 21)
	spec := testSpec()
	spec.Target = 6
	inst, err := fed.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Parts()) != 1 {
		t.Fatalf("parts = %v, want the idle-rich shard only", inst.Parts())
	}

	if err := inst.Resize(-1); err == nil {
		t.Fatal("negative target accepted")
	}
	if fed.Down(0) || fed.Down(99) {
		t.Fatal("healthy/unknown shard reported down")
	}

	// Idle appears on shard 1; growing the instance must open a part
	// there: each shard airs its own carousel.
	feedIdle(t, clk, fed, 1, 100, 140)
	if err := inst.Resize(16); err != nil {
		t.Fatal(err)
	}
	parts := inst.Parts()
	if len(parts) != 2 {
		t.Fatalf("parts after grow = %v, want both shards", parts)
	}
	agg, err := inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Target != 16 {
		t.Fatalf("aggregate target = %d, want 16", agg.Target)
	}

	// Recompose bumps every part's wakeup sequence.
	before := agg.Wakeups
	img2 := &appimage.Image{Name: "a", Version: 2, EntryPoint: "e", Payload: []byte{2}}
	if err := inst.Recompose(img2); err != nil {
		t.Fatal(err)
	}
	agg, err = inst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Wakeups != before+len(parts) {
		t.Fatalf("wakeups %d -> %d, want one recompose broadcast per part", before, agg.Wakeups)
	}

	if err := inst.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Resize(4); err == nil {
		t.Fatal("resize after destroy accepted")
	}
	if err := inst.Recompose(img2); err == nil {
		t.Fatal("recompose after destroy accepted")
	}
	if err := inst.Destroy(); err != nil {
		t.Fatalf("second destroy not idempotent: %v", err)
	}
}

// A fully-down federation refuses Resize rather than dropping the
// request on the floor.
func TestFedResizeAllShardsDown(t *testing.T) {
	clk := simtime.NewSim(epoch)
	fed, stores := newTestFed(t, clk, 1, nil)
	defer stopAll(t, clk, fed, stores)

	feedIdle(t, clk, fed, 0, 1, 11)
	inst, err := fed.Create(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// stopAll skips down shards (Controller errors), so stop the
	// controller here — an orphaned maintenance loop would hang the
	// sim clock's Wait.
	mustCtrl(t, fed, 0).Stop()
	if err := fed.Kill(0); err != nil {
		t.Fatal(err)
	}
	if !fed.Down(0) {
		t.Fatal("killed shard not reported down")
	}
	if err := inst.Resize(4); !errors.Is(err, ErrShardDown) {
		t.Fatalf("resize with every shard down: %v, want ErrShardDown", err)
	}
}
