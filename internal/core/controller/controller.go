// Package controller implements the OddCI Controller: the component
// "in charge of setting up the infrastructure, as instructed by the
// Provider, by formatting and sending through the broadcast channel the
// control messages, including software images, necessary for building
// and maintaining the OddCI instances" (§3.1).
//
// Concretely it owns the head-end: the DSM-CC carousel (PNA Xlet +
// signed control file + application images) and the AIT signalling. On
// the return path it consolidates PNA heartbeats, maintains instance
// sizes (rebroadcasting wakeups to recompose instances that lost nodes,
// trimming excess via reset commands in heartbeat replies), and reports
// consolidated state to the Provider.
package controller

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"oddci/internal/ait"
	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/journal"
	"oddci/internal/middleware"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
)

// HeadEnd is the transmitter-side view of any cyclic file-broadcast
// service the Controller can manage content on: the playout engine
// (dsmcc.Broadcaster, over a DSM-CC or a flute layout), a wrapper that
// injects faults or resumes one already cycling, or the TCP coordinator
// (transport.Coordinator), which pushes the same files to its sessions.
type HeadEnd interface {
	// Start begins cycling the initial contents.
	Start(files []dsmcc.File) error
	// Update replaces the contents at the next cycle boundary.
	Update(files []dsmcc.File) error
}

// Config assembles a Controller.
type Config struct {
	Clock       simtime.Clock
	Broadcaster HeadEnd
	// Signalling, if set, carries the AIT that announces the PNA. A head-end
	// with no AIT (the TCP coordinator, whose banner announces the
	// application) leaves it nil.
	Signalling *middleware.Signalling
	// Key signs broadcast control messages.
	Key ed25519.PrivateKey
	// OrgID identifies the broadcaster in AIT entries.
	OrgID uint32
	// MaintenancePeriod is the instance-size control loop interval.
	MaintenancePeriod time.Duration
	// ResetRetransmitTicks is how many maintenance passes a destroyed
	// instance's reset envelope stays on the carousel before the
	// instance is garbage-collected from the head-end. It must cover
	// the longest interval a grace-windowed PNA can go without reading
	// the control file (default 3).
	ResetRetransmitTicks int
	// RefreshRetryBase and RefreshRetryMax bound the exponential
	// backoff applied when a head-end update fails: the first retry
	// waits RefreshRetryBase, doubling up to RefreshRetryMax
	// (defaults 5 s and 2 min). The maintenance loop also retries
	// pending refreshes on its own cadence.
	RefreshRetryBase time.Duration
	RefreshRetryMax  time.Duration
	// TargetHeartbeatRate, if positive, bounds the Controller's inbound
	// heartbeat load: idle nodes are re-tuned (via heartbeat replies) so
	// the whole population produces about this many heartbeats per
	// second — §3.2's requirement that PNAs "be appropriately configured
	// by the Controller so that the handling of these messages will not
	// consume too much of the Controller's ... resources". Busy nodes
	// keep their instance's period.
	TargetHeartbeatRate float64
	// Obs, if set, receives live telemetry (oddci_controller_* metrics)
	// and the carousel-refresh / heartbeat-silence health checks. Hot
	// paths touch only pre-created handles via atomics.
	Obs *obs.Registry
	// Spans, if set, records causal spans: every wakeup broadcast
	// (initial and recompositions) starts a root span, published in the
	// collector's link table under (instance, seq) so joining PNAs can
	// parent their join spans without widening the signed control
	// codec. Lifecycle facts (create, trim, destroy, gc, refresh retry
	// and recovery) are point events on the same collector, under the
	// instance's latest wakeup trace: the ordered record /timeline
	// renders. The oddci_controller_*_total counters say how many.
	Spans *span.Collector
	// Rng is unused: nothing in the Controller draws randomness.
	Rng *rand.Rand
	// Journal, if set, makes the control plane durable: lifecycle
	// mutations (create/resize/recompose/destroy/gc) are appended as
	// they commit, and New replays the store's journal so a
	// restarted Controller re-enters the carousel at the recorded
	// generation instead of re-staging every image. Live nodes are
	// re-adopted from their next heartbeat — never re-woken.
	Journal *journal.Store
}

func (c *Config) fill() error {
	if c.Clock == nil || c.Broadcaster == nil {
		return errors.New("controller: clock and broadcaster are required")
	}
	if len(c.Key) == 0 {
		return errors.New("controller: signing key is required")
	}
	if c.MaintenancePeriod <= 0 {
		c.MaintenancePeriod = time.Minute
	}
	if c.ResetRetransmitTicks <= 0 {
		c.ResetRetransmitTicks = 3
	}
	if c.RefreshRetryBase <= 0 {
		c.RefreshRetryBase = 5 * time.Second
	}
	if c.RefreshRetryMax < c.RefreshRetryBase {
		c.RefreshRetryMax = 2 * time.Minute
		if c.RefreshRetryMax < c.RefreshRetryBase {
			c.RefreshRetryMax = c.RefreshRetryBase
		}
	}
	return nil
}

// Policy values no deployment, test or benchmark ever set differently.
const (
	// PNAClassFile names the agent code on the carousel and in the AIT.
	PNAClassFile = "pna.xlet"
	// HeartbeatGrace is how many heartbeat periods may elapse before a
	// silent node is presumed gone.
	HeartbeatGrace = 3
	// SafetyFactor overshoots recomposition probabilities to converge
	// faster under estimation error.
	SafetyFactor = 1.2
	// MinHeartbeatPeriod and MaxHeartbeatPeriod clamp the adaptive
	// period TargetHeartbeatRate hands to idle nodes.
	MinHeartbeatPeriod = 10 * time.Second
	MaxHeartbeatPeriod = 30 * time.Minute
	// RefreshStuckAfter is the consecutive failed-refresh count at which
	// the carousel-refresh health check reports unhealthy.
	RefreshStuckAfter = 3
	// HeartbeatSilence is the no-heartbeats-at-all window after which
	// the heartbeat-silence health check reports unhealthy while nodes
	// are tracked.
	HeartbeatSilence = 3 * MaxHeartbeatPeriod
)

// pnaXlet is the agent code carried in the carousel.
var pnaXlet = []byte("oddci-pna-xlet-v1")

// Lifecycle errors, distinguishable with errors.Is.
var (
	// ErrUnknownInstance reports an ID the Controller never issued.
	ErrUnknownInstance = errors.New("controller: unknown instance")
	// ErrInstanceGone reports an instance that was destroyed (and
	// possibly already garbage-collected from the head-end).
	ErrInstanceGone = errors.New("controller: instance destroyed")
)

// InstanceSpec is the Provider's request for one OddCI instance.
type InstanceSpec struct {
	// Image is the application to stage.
	Image *appimage.Image
	// Target is the requested instance size in nodes.
	Target int
	// Requirements filter eligible devices.
	Requirements instance.Requirements
	// HeartbeatPeriod tunes member reporting (0 = PNA default).
	HeartbeatPeriod time.Duration
	// Lifetime auto-dismantles member DVEs (0 = until reset).
	Lifetime time.Duration
	// InitialProbability overrides the wakeup probability of the first
	// broadcast; 0 lets the Controller derive it from the observed idle
	// population.
	InitialProbability float64
}

// InstanceStatus is the consolidated view passed to the Provider.
type InstanceStatus struct {
	ID     instance.ID
	Target int
	Busy   int
	// Seq is the sequence number of the instance's envelope on air.
	Seq      uint32
	Wakeups  int // wakeup broadcasts sent (1 + recompositions)
	Resets   int
	Trimming int // pending reset commands for excess nodes
	// Destroyed is set once the instance is dismantled; its reset
	// envelope stays on air until the retransmission window closes and
	// the instance is garbage-collected (after which Status returns
	// ErrInstanceGone).
	Destroyed bool
}

type instState struct {
	id          instance.ID
	spec        InstanceSpec
	imageFile   string
	imageDigest appimage.Digest
	// imageRaw is the image's serialized bytes, encoded exactly once at
	// Create/recovery. Carousel refreshes re-stage these bytes verbatim
	// (the encode-once property applied to the head-end): with
	// content-hashed modules downstream, an unchanged image re-airs as a
	// cache hit, never as a re-encode. Nothing writes to them, so the
	// next generation compares against them to hash only what changed.
	imageRaw []byte
	// chunks are imageRaw's appimage.ChunkBytes chunk digests: the list
	// imageDigest roots, handed to the head-end and the journal with the
	// bytes, so neither hashes them again.
	chunks       []appimage.Digest
	seq          uint32
	wakeups      int
	resets       int
	trimPending  int
	members      map[uint64]time.Time // busy nodes → last heartbeat
	destroyed    bool
	lastWakeup   *control.Wakeup
	resetEnvOpen bool // a reset envelope for this id is on air
	// resetTicks counts the maintenance passes the reset envelope has
	// left on air before the instance is garbage-collected.
	resetTicks int
	// Telemetry state: when the latest wakeup aired, whether a join has
	// been observed since (wakeup→first-join latency), when the instance
	// was created, and whether it has reached its target size yet
	// (time-to-converge).
	wakeupAt        time.Time
	joinSinceWakeup bool
	createdAt       time.Time
	converged       bool
	// adoptUntil, set on recovered live instances, holds off maintenance
	// recompositions until surviving members have had a chance to report
	// in — re-adoption replaces re-waking after a restart.
	adoptUntil time.Time
}

type nodeInfo struct {
	state      control.NodeState
	instanceID instance.ID
	profile    instance.DeviceProfile
	lastSeen   time.Time
	hbPeriod   time.Duration
}

// nodeShardCount fixes the number of node-state shards. Heartbeat
// consolidation locks only one shard plus (for busy nodes) the instance
// table, so sessions on different shards proceed in parallel — the
// first-order answer to the paper's footnote-3 Controller-bottleneck
// question, measured by BenchmarkHandleHeartbeatParallel.
const nodeShardCount = 64

type nodeShard struct {
	mu    sync.Mutex
	nodes map[uint64]*nodeInfo
}

// Controller is the head-end component.
type Controller struct {
	cfg Config

	mu         sync.Mutex
	started    bool
	recovered  bool // state was replayed from a journal store
	aitVersion uint8
	instances  map[instance.ID]*instState
	order      []instance.ID
	nextID     instance.ID
	maint      simtime.Timer
	stopped    bool

	// Carousel-refresh retry state: when a head-end Update fails the
	// pending flag stays set and a backoff timer (plus every
	// maintenance pass) retries until the broadcaster accepts the
	// content again.
	refreshPending  bool
	refreshAttempts int
	refreshTimer    simtime.Timer

	shards    [nodeShardCount]nodeShard
	nodeCount atomic.Int64
	// idleCount tracks the idle subset of nodeCount; heartbeat
	// back-pressure sizes the idle reporting period from it (only idle
	// nodes are re-tuned, so using the total population would land the
	// realized rate below target).
	idleCount atomic.Int64

	// heartbeatsSeen counts processed heartbeats (load accounting).
	heartbeatsSeen atomic.Int64
	// lastHeartbeat is the unix-nano arrival time of the most recent
	// heartbeat (heartbeat-silence health check).
	lastHeartbeat atomic.Int64

	met ctrlMetrics
}

// ctrlMetrics bundles the Controller's pre-created telemetry handles.
// All handles are nil (no-op) when Config.Obs is unset, so the hot path
// pays at most a nil check per metric.
type ctrlMetrics struct {
	heartbeats    *obs.Counter
	wakeups       *obs.Counter
	resetsSent    *obs.Counter
	trims         *obs.Counter
	created       *obs.Counter
	destroyed     *obs.Counter
	gced          *obs.Counter
	refreshRetry  *obs.Counter
	refreshOK     *obs.Counter
	nodesExpired  *obs.Counter
	hbPeriod      *obs.Gauge // back-pressure period handed to idle nodes
	wakeupToJoin  *obs.Histogram
	convergeTime  *obs.Histogram
	refreshDelay  *obs.Gauge // current backoff delay armed (seconds)
	maintainTicks *obs.Counter
	recoveredInst *obs.Counter
	imageEncodes  *obs.Counter
	imageUpdates  *obs.Counter
	chunksHashed  *obs.Counter
}

// instrument creates metric handles and registers the gauge functions
// and health checks against reg (a nil reg leaves every handle no-op).
func (c *Controller) instrument(reg *obs.Registry) {
	c.met = ctrlMetrics{
		heartbeats:    reg.Counter("oddci_controller_heartbeats_total", "Heartbeats consolidated"),
		wakeups:       reg.Counter("oddci_controller_wakeups_total", "Wakeup broadcasts sent (initial + recompositions)"),
		resetsSent:    reg.Counter("oddci_controller_resets_total", "Reset commands issued in heartbeat replies"),
		trims:         reg.Counter("oddci_controller_trims_total", "Excess members trimmed"),
		created:       reg.Counter("oddci_controller_instances_created_total", "Instances provisioned"),
		destroyed:     reg.Counter("oddci_controller_instances_destroyed_total", "Instances dismantled"),
		gced:          reg.Counter("oddci_controller_instances_gced_total", "Destroyed instances garbage-collected from the head-end"),
		refreshRetry:  reg.Counter("oddci_controller_refresh_retries_total", "Failed carousel updates awaiting backoff retry"),
		refreshOK:     reg.Counter("oddci_controller_refresh_recoveries_total", "Carousel updates recovered after retries"),
		nodesExpired:  reg.Counter("oddci_controller_nodes_expired_total", "Silent nodes expired by the maintenance loop"),
		hbPeriod:      reg.Gauge("oddci_controller_heartbeat_period_seconds", "Back-pressure reporting period handed to idle nodes"),
		wakeupToJoin:  reg.Histogram("oddci_controller_wakeup_to_join_seconds", "Latency from a wakeup broadcast to the first member join", nil),
		convergeTime:  reg.Histogram("oddci_controller_converge_seconds", "Time from instance creation to first reaching target size", nil),
		refreshDelay:  reg.Gauge("oddci_controller_refresh_backoff_seconds", "Backoff delay armed for the next refresh retry"),
		maintainTicks: reg.Counter("oddci_controller_maintenance_passes_total", "Maintenance loop passes"),
		recoveredInst: reg.Counter("oddci_controller_instances_recovered_total", "Instances recovered from the journal at startup"),
		imageEncodes:  reg.Counter("oddci_controller_image_encodes_total", "Image serializations performed (once per instance create, flat in refresh count)"),
		imageUpdates:  reg.Counter("oddci_controller_image_updates_total", "Live-instance image replacements (Recompose)"),
		chunksHashed:  reg.Counter("oddci_controller_image_chunks_hashed_total", "Image chunks hashed (every chunk at create, only the changed ones at Recompose)"),
	}
	if reg == nil {
		return
	}
	reg.GaugeFunc("oddci_controller_nodes", "Nodes tracked from heartbeat state", func() float64 {
		return float64(c.nodeCount.Load())
	})
	reg.GaugeFunc("oddci_controller_nodes_idle", "Idle subset of tracked nodes", func() float64 {
		return float64(c.idleCount.Load())
	})
	reg.GaugeFunc("oddci_controller_instances_live", "Live (non-destroyed) instances", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, st := range c.instances {
			if !st.destroyed {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("oddci_controller_size_deficit", "Sum over live instances of target minus members", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		deficit := 0
		for _, st := range c.instances {
			if st.destroyed {
				continue
			}
			if d := st.spec.Target - len(st.members); d > 0 {
				deficit += d
			}
		}
		return float64(deficit)
	})
	reg.GaugeFunc("oddci_controller_refresh_attempts", "Consecutive failed carousel refresh attempts", func() float64 {
		_, attempts := c.RefreshPending()
		return float64(attempts)
	})
	reg.RegisterHealth("carousel-refresh", func() error {
		pending, attempts := c.RefreshPending()
		if pending && attempts >= RefreshStuckAfter {
			return fmt.Errorf("refresh stuck in backoff after %d failed attempts", attempts)
		}
		return nil
	})
	reg.RegisterHealth("heartbeat-silence", func() error {
		last := c.lastHeartbeat.Load()
		if last == 0 || c.nodeCount.Load() == 0 {
			return nil // nothing tracked yet: silence is expected
		}
		if silent := c.cfg.Clock.Now().Sub(time.Unix(0, last)); silent > HeartbeatSilence {
			return fmt.Errorf("no heartbeat for %s from %d tracked nodes", silent, c.nodeCount.Load())
		}
		return nil
	})
}

// HeartbeatsSeen reports how many heartbeats the Controller has
// consolidated.
func (c *Controller) HeartbeatsSeen() int64 { return c.heartbeatsSeen.Load() }

func (c *Controller) shard(nodeID uint64) *nodeShard {
	return &c.shards[nodeID%nodeShardCount]
}

// New builds a Controller. With Config.Journal set, it replays the
// store's journal and comes up holding the pre-crash instance
// table (Start then re-airs it in one head-end update).
func New(cfg Config) (*Controller, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		instances: make(map[instance.ID]*instState),
		nextID:    1,
	}
	for i := range c.shards {
		c.shards[i].nodes = make(map[uint64]*nodeInfo)
	}
	c.instrument(cfg.Obs)
	if cfg.Journal != nil {
		if err := c.recover(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// recover replays the journal store into the instance tables. Membership
// is deliberately left empty: surviving members announce themselves on
// their next heartbeat (re-adoption), and Start grants each live
// instance an adoption grace window before maintenance may recompose.
func (c *Controller) recover() error {
	st, err := c.cfg.Journal.Load()
	if err != nil {
		return fmt.Errorf("controller: recover: %w", err)
	}
	if st.NextID > 1 {
		c.nextID = instance.ID(st.NextID)
	}
	if st.Empty() {
		return nil
	}
	c.recovered = true
	for _, id := range st.Order {
		rec := st.Instances[id]
		img, err := appimage.Decode(rec.Image)
		if err != nil {
			return fmt.Errorf("controller: recover instance %d image: %w", id, err)
		}
		digest := appimage.RootOf(len(rec.Image), rec.Chunks) // Load checked them
		is := &instState{
			id:       instance.ID(rec.ID),
			imageRaw: rec.Image,
			chunks:   rec.Chunks,
			spec: InstanceSpec{
				Image:           img,
				Target:          int(rec.Target),
				Requirements:    rec.Requirements,
				HeartbeatPeriod: rec.HeartbeatPeriod,
				Lifetime:        rec.Lifetime,
			},
			imageFile:   rec.ImageFile,
			imageDigest: digest,
			seq:         rec.Seq,
			wakeups:     int(rec.Wakeups),
			resets:      int(rec.Resets),
			destroyed:   rec.Destroyed,
			// Suppress wakeup→join telemetry for re-adopted members: the
			// pre-crash wakeup time is gone, so any latency would be
			// measured against the restart instead.
			joinSinceWakeup: true,
		}
		if rec.Destroyed {
			// Restart the full reset-retransmission window so every
			// grace-windowed PNA gets another chance to observe the reset.
			is.resetEnvOpen = true
			is.resetTicks = c.cfg.ResetRetransmitTicks
		} else {
			is.members = make(map[uint64]time.Time)
			is.lastWakeup = &control.Wakeup{
				InstanceID:      is.id,
				Seq:             rec.Seq,
				Probability:     rec.Probability,
				Requirements:    rec.Requirements,
				ImageFile:       rec.ImageFile,
				ImageDigest:     digest,
				HeartbeatPeriod: rec.HeartbeatPeriod,
				Lifetime:        rec.Lifetime,
			}
		}
		c.instances[is.id] = is
		c.order = append(c.order, is.id)
		c.met.recoveredInst.Inc()
	}
	return nil
}

// Recovered reports whether New replayed durable state.
func (c *Controller) Recovered() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recovered
}

// adoptGraceLocked computes a recovered live instance's re-adoption
// window: surviving members report at their instance period (or the PNA
// default), so after HeartbeatGrace of those periods everyone alive has
// had a chance to be counted.
func (c *Controller) adoptGraceLocked(st *instState, now time.Time) time.Time {
	period := st.spec.HeartbeatPeriod
	if period <= 0 {
		period = time.Minute // the PNA's default reporting period
	}
	return now.Add(time.Duration(HeartbeatGrace) * period)
}

// journalRecordLocked renders st as its full durable record (OpCreate
// and compaction).
func journalRecordLocked(st *instState) journal.InstanceRecord {
	rec := journal.InstanceRecord{
		ID:              uint64(st.id),
		Seq:             st.seq,
		Wakeups:         uint32(st.wakeups),
		Resets:          uint32(st.resets),
		Destroyed:       st.destroyed,
		ResetTicks:      int32(st.resetTicks),
		Target:          int32(st.spec.Target),
		HeartbeatPeriod: st.spec.HeartbeatPeriod,
		Lifetime:        st.spec.Lifetime,
		Requirements:    st.spec.Requirements,
		ImageFile:       st.imageFile,
	}
	if st.lastWakeup != nil {
		rec.Probability = st.lastWakeup.Probability
	}
	rec.Image, rec.Chunks = st.imageRaw, st.chunks // encoded and hashed once
	return rec
}

// journalAppendLocked persists one lifecycle mutation, then compacts
// once the journal outgrows its threshold: the current tables replace
// it, one create per instance, bounding replay time and disk growth.
// Every append checks, because OpCreate and OpRecompose records carry a
// whole image. Append and compaction errors do not fail the control
// plane — the store latches the error into Err and the journal-stalled
// health check, and the operator decides.
func (c *Controller) journalAppendLocked(r journal.Record) {
	j := c.cfg.Journal
	if j == nil {
		return
	}
	_ = j.Append(r)
	if j.NeedsCompaction() {
		_ = j.Compact(c.durableStateLocked())
	}
}

// durableStateLocked rebuilds the journal State image of the current
// tables (compaction input).
func (c *Controller) durableStateLocked() *journal.State {
	st := journal.NewState()
	st.NextID = uint64(c.nextID)
	for _, is := range c.orderedLocked() {
		rec := journalRecordLocked(is)
		st.Instances[rec.ID] = &rec
		st.Order = append(st.Order, rec.ID)
	}
	return st
}

// Start puts the PNA Xlet and the control file on air, signals
// AUTOSTART, and begins the maintenance loop. On a recovered Controller
// the initial contents already hold the replayed instances — one
// head-end update re-airs everything — and a failed initial staging is
// not fatal: it enters the refresh-retry backoff path, because the
// durable state must come back up even when the head-end is flapping.
func (c *Controller) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return errors.New("controller: already started")
	}
	c.started = true
	if err := c.cfg.Broadcaster.Start(c.carouselFilesLocked()); err != nil {
		if !c.recovered {
			return fmt.Errorf("controller: start carousel: %w", err)
		}
		c.refreshFailedLocked()
	}
	if c.recovered {
		now := c.cfg.Clock.Now()
		for _, st := range c.instances {
			if !st.destroyed {
				st.adoptUntil = c.adoptGraceLocked(st, now)
			}
		}
	}
	if err := c.publishAITLocked(); err != nil {
		return err
	}
	c.scheduleMaintenanceLocked()
	return nil
}

// Stop halts the maintenance and refresh-retry loops (tests and
// experiment teardown).
func (c *Controller) Stop() {
	c.mu.Lock()
	c.stopped = true
	t := c.maint
	c.maint = nil
	rt := c.refreshTimer
	c.refreshTimer = nil
	c.mu.Unlock()
	if t != nil {
		t.Stop()
	}
	if rt != nil {
		rt.Stop()
	}
}

func (c *Controller) scheduleMaintenanceLocked() {
	if c.stopped {
		return
	}
	c.maint = c.cfg.Clock.AfterFunc(c.cfg.MaintenancePeriod, func() {
		c.maintain()
		c.mu.Lock()
		c.scheduleMaintenanceLocked()
		c.mu.Unlock()
	})
}

// carouselFilesLocked assembles the current carousel contents in
// module order: PNA Xlet, control file, then one image per live
// instance. Order matters: a PNA that has just read the control file
// continues straight into the image within the same cycle.
func (c *Controller) carouselFilesLocked() []dsmcc.File {
	files := []dsmcc.File{
		{Name: PNAClassFile, Data: pnaXlet},
		{Name: ControlFile, Data: c.controlFileLocked()},
	}
	for _, st := range c.orderedLocked() {
		if !st.destroyed {
			files = append(files, dsmcc.File{Name: st.imageFile, Data: st.imageRaw, Chunks: st.chunks})
		}
	}
	return files
}

// ControlFile names the signed control file on the carousel: the
// concatenated wakeup and reset envelopes.
const ControlFile = "oddci.config"

func (c *Controller) orderedLocked() []*instState {
	out := make([]*instState, 0, len(c.order))
	for _, id := range c.order {
		if st, ok := c.instances[id]; ok {
			out = append(out, st)
		}
	}
	return out
}

// controlFileLocked concatenates the live signed envelopes: the latest
// wakeup per live instance plus resets for recently destroyed ones.
func (c *Controller) controlFileLocked() []byte {
	var out []byte
	for _, st := range c.orderedLocked() {
		if st.destroyed {
			if st.resetEnvOpen {
				raw, err := control.SignReset(&control.Reset{InstanceID: st.id, Seq: st.seq}, c.cfg.Key)
				if err == nil {
					out = append(out, raw...)
				}
			}
			continue
		}
		if st.lastWakeup != nil {
			raw, err := control.SignWakeup(st.lastWakeup, c.cfg.Key)
			if err == nil {
				out = append(out, raw...)
			}
		}
	}
	return out
}

func (c *Controller) publishAITLocked() error {
	if c.cfg.Signalling == nil {
		return nil
	}
	c.aitVersion = (c.aitVersion + 1) & 0x1F
	table := &ait.AIT{
		Type:    ait.TypeDVBJ,
		Version: c.aitVersion,
		Applications: []ait.Application{{
			OrgID:       c.cfg.OrgID,
			AppID:       1,
			ControlCode: ait.Autostart,
			Name:        "OddCI-PNA",
			ClassFile:   PNAClassFile,
		}},
	}
	return c.cfg.Signalling.Publish(table)
}

// refreshCarouselLocked pushes the current contents to the broadcaster
// (committed at the next cycle boundary). It is the raw attempt;
// callers that must not strand on-air state behind already-bumped
// sequence numbers go through requestRefreshLocked instead.
func (c *Controller) refreshCarouselLocked() error {
	return c.cfg.Broadcaster.Update(c.carouselFilesLocked())
}

// requestRefreshLocked pushes the current contents to the head-end and,
// on failure, arms the exponential-backoff retry path so the update is
// eventually re-attempted even if no further state change occurs.
func (c *Controller) requestRefreshLocked() {
	if err := c.refreshCarouselLocked(); err != nil {
		c.refreshFailedLocked()
		return
	}
	c.refreshDoneLocked()
}

// refreshDoneLocked records a successful head-end update, clearing any
// pending retry.
func (c *Controller) refreshDoneLocked() {
	if c.refreshPending {
		c.met.refreshOK.Inc()
		if c.cfg.Spans != nil {
			c.eventLocked(0, "refresh-ok", "attempts=%d", c.refreshAttempts)
		}
	}
	c.refreshPending = false
	c.refreshAttempts = 0
	c.met.refreshDelay.Set(0)
	if c.refreshTimer != nil {
		c.refreshTimer.Stop()
		c.refreshTimer = nil
	}
}

// refreshFailedLocked marks the on-air content stale and schedules a
// retry with exponential backoff (unless one is already armed).
func (c *Controller) refreshFailedLocked() {
	c.refreshPending = true
	c.refreshAttempts++
	c.met.refreshRetry.Inc()
	if c.cfg.Spans != nil {
		c.eventLocked(0, "refresh-retry", "attempt=%d", c.refreshAttempts)
	}
	if c.stopped || c.refreshTimer != nil {
		return
	}
	delay := c.cfg.RefreshRetryBase
	for i := 1; i < c.refreshAttempts && delay < c.cfg.RefreshRetryMax; i++ {
		delay *= 2
	}
	if delay > c.cfg.RefreshRetryMax {
		delay = c.cfg.RefreshRetryMax
	}
	c.met.refreshDelay.Set(delay.Seconds())
	c.refreshTimer = c.cfg.Clock.AfterFunc(delay, c.retryRefresh)
}

// retryRefresh is the backoff timer body.
func (c *Controller) retryRefresh() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refreshTimer = nil
	if c.stopped || !c.refreshPending {
		return
	}
	c.requestRefreshLocked()
}

// RefreshPending reports whether a head-end update is awaiting retry,
// and how many consecutive attempts have failed.
func (c *Controller) RefreshPending() (bool, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.refreshPending, c.refreshAttempts
}

// wakeupSpanLocked starts the root span of one wakeup broadcast and
// publishes its context in the collector's link table under
// (instance, seq), where joining PNAs (same process) or the TCP
// coordinator's banner (remote nodes) pick it up, and under
// (instance, 0), where the instance's lifecycle events find the trace
// to hang under. Sampling is decided here, at the head of the trace; a
// wakeup that loses the draw still reaches the timeline, as an orphan
// event.
func (c *Controller) wakeupSpanLocked(st *instState, prob float64) {
	sc := c.cfg.Spans
	if sc == nil {
		return
	}
	sp := sc.Root("wakeup", "controller")
	if sp == nil {
		sc.Event(span.Context{}, "wakeup", "controller", "instance=%d seq=%d p=%.2f", st.id, st.seq, prob)
		return
	}
	sp.SetDetail("instance=%d seq=%d p=%.2f", st.id, st.seq, prob)
	sc.SetLink(span.LinkKey(uint64(st.id), uint64(st.seq)), sp.Context())
	sc.SetLink(span.LinkKey(uint64(st.id), 0), sp.Context())
	sp.End()
}

// eventLocked puts one lifecycle fact on the span timeline, under the
// instance's latest wakeup trace when the link table still knows it and
// as an orphan otherwise (id 0: a head-end-wide fact). The counters in
// c.met say how many; this says when, and next to what. Callers check
// c.cfg.Spans first, so an untraced Controller boxes no arguments.
func (c *Controller) eventLocked(id instance.ID, name, detail string, args ...any) {
	parent, _ := c.cfg.Spans.GetLink(span.LinkKey(uint64(id), 0))
	c.cfg.Spans.Event(parent, name, "controller", detail, args...)
}

// WakeupTraceContext returns the trace context of an instance's most
// recent wakeup broadcast (zero when untraced or unsampled). The TCP
// coordinator stamps it into session banners so remote nodes join the
// same trace the broadcast started.
func (c *Controller) WakeupTraceContext(id instance.ID, seq uint32) span.Context {
	ctx, _ := c.cfg.Spans.GetLink(span.LinkKey(uint64(id), uint64(seq)))
	return ctx
}

// lookupLocked resolves an instance ID, distinguishing IDs the
// Controller never issued (ErrUnknownInstance) from instances already
// garbage-collected after destruction (ErrInstanceGone). A destroyed
// instance still inside its reset-retransmission window resolves
// normally with st.destroyed set.
func (c *Controller) lookupLocked(id instance.ID) (*instState, error) {
	if st, ok := c.instances[id]; ok {
		return st, nil
	}
	if id == 0 || id >= c.nextID {
		return nil, fmt.Errorf("%w %d", ErrUnknownInstance, id)
	}
	return nil, fmt.Errorf("%w: %d garbage-collected", ErrInstanceGone, id)
}

// ContentStats reports the head-end content assembled from current
// state: control-file bytes, carousel file count, and the live /
// destroyed-on-air instance split. Lifecycle tests use it to assert the
// head-end stays bounded under churn.
func (c *Controller) ContentStats() (controlFileBytes, carouselFiles, live, destroyedOnAir int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	files := c.carouselFilesLocked()
	carouselFiles = len(files)
	controlFileBytes = len(files[1].Data)
	for _, st := range c.instances {
		if st.destroyed {
			destroyedOnAir++
		} else {
			live++
		}
	}
	return controlFileBytes, carouselFiles, live, destroyedOnAir
}

// idleEligibleLocked estimates the idle population matching req from
// heartbeat state. Callers hold c.mu; shard locks are taken briefly per
// shard (global → shard ordering is the allowed direction).
func (c *Controller) idleEligibleLocked(req instance.Requirements, now time.Time) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, ni := range sh.nodes {
			if ni.state != control.StateIdle {
				continue
			}
			if !req.Match(ni.profile) {
				continue
			}
			if c.stale(ni, now) {
				continue
			}
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// relDiff returns |a-b|/b for positive durations.
func relDiff(a, b time.Duration) float64 {
	d := (a - b).Seconds()
	if d < 0 {
		d = -d
	}
	return d / b.Seconds()
}

// stale reports whether a node has missed its grace window; the caller
// holds the node's shard lock.
func (c *Controller) stale(ni *nodeInfo, now time.Time) bool {
	period := ni.hbPeriod
	if period <= 0 {
		period = time.Minute
	}
	return now.Sub(ni.lastSeen) > time.Duration(HeartbeatGrace)*period
}

// probabilityFor sizes the wakeup probability: target surplus nodes
// from an idle population of size pop.
func (c *Controller) probabilityFor(deficit, pop int) float64 {
	if pop <= 0 {
		return 1
	}
	p := SafetyFactor * float64(deficit) / float64(pop)
	if p > 1 {
		return 1
	}
	return p
}

// CreateInstance provisions a new OddCI instance: the image goes on the
// carousel and a signed wakeup is broadcast.
func (c *Controller) CreateInstance(spec InstanceSpec) (instance.ID, error) {
	if spec.Image == nil {
		return 0, errors.New("controller: instance needs an image")
	}
	if spec.Target <= 0 {
		return 0, errors.New("controller: target size must be positive")
	}
	if spec.InitialProbability < 0 || spec.InitialProbability > 1 {
		return 0, errors.New("controller: initial probability out of [0,1]")
	}
	// Serialize and hash the image exactly once; every carousel refresh
	// and journal record reuses these bytes and their chunk digests.
	imageRaw, err := spec.Image.Encode()
	if err != nil {
		return 0, fmt.Errorf("controller: image: %w", err)
	}
	chunks := appimage.ChunkDigests(nil, imageRaw)
	digest := appimage.RootOf(len(imageRaw), chunks)
	c.met.imageEncodes.Inc()
	c.met.chunksHashed.Add(int64(len(chunks)))

	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return 0, errors.New("controller: not started")
	}
	now := c.cfg.Clock.Now()
	id := c.nextID
	c.nextID++
	st := &instState{
		id:          id,
		spec:        spec,
		imageFile:   fmt.Sprintf("image.%d", id),
		imageDigest: digest,
		imageRaw:    imageRaw,
		chunks:      chunks,
		members:     make(map[uint64]time.Time),
		wakeupAt:    now,
		createdAt:   now,
	}
	prob := spec.InitialProbability
	if prob == 0 {
		prob = c.probabilityFor(spec.Target, c.idleEligibleLocked(spec.Requirements, now))
	}
	st.seq = 1
	st.wakeups = 1
	st.lastWakeup = &control.Wakeup{
		InstanceID:      id,
		Seq:             st.seq,
		Probability:     prob,
		Requirements:    spec.Requirements,
		ImageFile:       st.imageFile,
		ImageDigest:     digest,
		HeartbeatPeriod: spec.HeartbeatPeriod,
		Lifetime:        spec.Lifetime,
	}
	c.instances[id] = st
	c.order = append(c.order, id)
	if err := c.refreshCarouselLocked(); err != nil {
		// Roll back: the head-end rejected the update, so nothing of
		// this instance is on air. A refresh already pending from an
		// earlier failure keeps its retry schedule.
		delete(c.instances, id)
		c.order = c.order[:len(c.order)-1]
		return 0, fmt.Errorf("controller: stage instance %d: %w", id, err)
	}
	c.refreshDoneLocked()
	// Journal after the head-end accepted the staging: a crash in the
	// window between commit and append loses only this instance, which
	// the PNAs' stray-member resets and the GC path reconcile; journaling
	// first would resurrect rolled-back instances instead.
	c.journalAppendLocked(journal.Record{Op: journal.OpCreate, Inst: journalRecordLocked(st)})
	c.met.created.Inc()
	c.met.wakeups.Inc()
	c.wakeupSpanLocked(st, prob)
	if c.cfg.Spans != nil {
		c.eventLocked(id, "create", "instance=%d target=%d", id, spec.Target)
	}
	return id, nil
}

// Resize changes an instance's target size. Shrinking trims via
// heartbeat replies; growing is handled by the next maintenance pass.
func (c *Controller) Resize(id instance.ID, target int) error {
	if target < 0 {
		return errors.New("controller: negative target")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.lookupLocked(id)
	if err != nil {
		return err
	}
	if st.destroyed {
		return fmt.Errorf("%w: %d", ErrInstanceGone, id)
	}
	st.spec.Target = target
	if excess := len(st.members) - target; excess > 0 {
		st.trimPending = excess
	} else {
		st.trimPending = 0
	}
	c.journalAppendLocked(journal.Record{Op: journal.OpResize, Inst: journal.InstanceRecord{
		ID:     uint64(id),
		Target: int32(target),
	}})
	return nil
}

// Recompose replaces a live instance's application image in place. The
// new image is encoded once, and only its chunks that differ from the
// current image's are hashed; the wakeup envelope re-airs at seq+1
// with the new digest; members ride the head-end (the carousel, or the
// TCP coordinator's chunk plane) to the new content. At or above target
// the wakeup airs probability zero, so idle nodes never roll against the
// bump; below target it keeps the last wakeup's probability, so a node
// that first hears the instance now still joins. The journal records
// the replacement, probability included, so a recovered Controller
// re-enters the head-end with the new image. Like DestroyInstance the
// mutation commits even when the head-end update fails; the refresh
// retries with backoff.
func (c *Controller) Recompose(id instance.ID, img *appimage.Image) error {
	if img == nil {
		return errors.New("controller: recompose needs an image")
	}
	imageRaw, err := img.Encode()
	if err != nil {
		return fmt.Errorf("controller: image: %w", err)
	}
	c.met.imageEncodes.Inc()
	// Diff and hash outside the lock. Whatever generation is current by
	// the time it is retaken, the digests are imageRaw's.
	var prevRaw []byte
	var prevChunks []appimage.Digest
	c.mu.Lock()
	if st := c.instances[id]; st != nil {
		prevRaw, prevChunks = st.imageRaw, st.chunks
	}
	c.mu.Unlock()
	chunks, hashed := appimage.ChunkDigestsSince(nil, imageRaw, prevRaw, prevChunks)
	digest := appimage.RootOf(len(imageRaw), chunks)
	c.met.chunksHashed.Add(int64(hashed))

	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return errors.New("controller: not started")
	}
	st, err := c.lookupLocked(id)
	if err != nil {
		return err
	}
	if st.destroyed {
		return fmt.Errorf("%w: %d", ErrInstanceGone, id)
	}
	st.spec.Image = img
	st.imageRaw, st.chunks = imageRaw, chunks
	st.imageDigest = digest
	st.seq++
	st.wakeups++
	w := *st.lastWakeup
	w.Seq = st.seq
	if len(st.members) >= st.spec.Target {
		w.Probability = 0 // a content update, not a recruitment round
	}
	w.ImageDigest = digest
	st.lastWakeup = &w
	c.journalAppendLocked(journal.Record{Op: journal.OpRecompose, Inst: journal.InstanceRecord{
		ID:          uint64(id),
		Seq:         st.seq,
		Wakeups:     uint32(st.wakeups),
		Probability: w.Probability,
		Image:       imageRaw,
		Chunks:      chunks,
	}})
	c.met.imageUpdates.Inc()
	c.met.wakeups.Inc()
	c.wakeupSpanLocked(st, w.Probability)
	c.requestRefreshLocked()
	return nil
}

// DestroyInstance dismantles an instance: a signed reset goes on air
// and the image leaves the carousel. Destruction commits immediately
// even when the head-end update fails — the refresh retries with
// backoff until the broadcaster accepts it. The reset envelope stays on
// air for ResetRetransmitTicks maintenance passes, after which the
// maintenance loop garbage-collects the instance entirely.
func (c *Controller) DestroyInstance(id instance.ID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.lookupLocked(id)
	if err != nil {
		return err
	}
	if st.destroyed {
		return fmt.Errorf("%w: %d", ErrInstanceGone, id)
	}
	st.destroyed = true
	st.resetEnvOpen = true
	st.resetTicks = c.cfg.ResetRetransmitTicks
	st.seq++
	st.resets++
	st.trimPending = 0
	st.members = nil // the frozen membership view is stale from here on
	c.journalAppendLocked(journal.Record{Op: journal.OpDestroy, Inst: journal.InstanceRecord{
		ID:         uint64(id),
		Seq:        st.seq,
		Resets:     uint32(st.resets),
		ResetTicks: int32(st.resetTicks),
	}})
	c.met.destroyed.Inc()
	if c.cfg.Spans != nil {
		c.eventLocked(id, "destroy", "instance=%d seq=%d", id, st.seq)
	}
	c.requestRefreshLocked()
	return nil
}

// Status reports the consolidated instance view. A destroyed instance
// still inside its reset-retransmission window reports Destroyed with
// zeroed membership counters; a garbage-collected one returns
// ErrInstanceGone, and an ID that never existed ErrUnknownInstance.
func (c *Controller) Status(id instance.ID) (InstanceStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.lookupLocked(id)
	if err != nil {
		return InstanceStatus{}, err
	}
	if st.destroyed {
		return InstanceStatus{
			ID:        id,
			Seq:       st.seq,
			Wakeups:   st.wakeups,
			Resets:    st.resets,
			Destroyed: true,
		}, nil
	}
	return InstanceStatus{
		ID:       id,
		Target:   st.spec.Target,
		Busy:     len(st.members),
		Seq:      st.seq,
		Wakeups:  st.wakeups,
		Resets:   st.resets,
		Trimming: st.trimPending,
	}, nil
}

// Population reports (alive idle, alive busy) node counts from
// heartbeat state.
func (c *Controller) Population() (idle, busy int) {
	now := c.cfg.Clock.Now()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, ni := range sh.nodes {
			if c.stale(ni, now) {
				continue
			}
			if ni.state == control.StateBusy {
				busy++
			} else {
				idle++
			}
		}
		sh.mu.Unlock()
	}
	return idle, busy
}

// maintain is the periodic control loop: expire silent nodes, recompose
// deficient instances, keep trim counters consistent, and run down the
// reset-retransmission windows of destroyed instances, garbage-
// collecting them from the head-end once every grace-windowed PNA has
// had its chance to observe the reset.
func (c *Controller) maintain() {
	c.mu.Lock()
	c.met.maintainTicks.Inc()
	now := c.cfg.Clock.Now()
	// Expire silent nodes shard by shard.
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for id, ni := range sh.nodes {
			if c.stale(ni, now) {
				if st, ok := c.instances[ni.instanceID]; ok {
					delete(st.members, id)
				}
				if ni.state == control.StateIdle {
					c.idleCount.Add(-1)
				}
				delete(sh.nodes, id)
				c.nodeCount.Add(-1)
				c.met.nodesExpired.Inc()
			}
		}
		sh.mu.Unlock()
	}
	refresh := false
	for _, st := range c.instances {
		if st.destroyed {
			// Count down the reset-retransmission window.
			st.resetTicks--
			continue
		}
		// Drop members whose heartbeats stopped.
		for nid := range st.members {
			sh := c.shard(nid)
			sh.mu.Lock()
			ni := sh.nodes[nid]
			gone := ni == nil || c.stale(ni, now) || ni.instanceID != st.id
			sh.mu.Unlock()
			if gone {
				delete(st.members, nid)
			}
		}
		deficit := st.spec.Target - len(st.members)
		if deficit <= 0 {
			if !st.converged {
				st.converged = true
				c.met.convergeTime.ObserveDuration(now.Sub(st.createdAt))
			}
			// A recovered instance that reconverged no longer needs its
			// adoption grace.
			st.adoptUntil = time.Time{}
		}
		if deficit < 0 {
			// Probabilistic sizing overshot: trim the excess through
			// heartbeat replies.
			st.trimPending = -deficit
		}
		if deficit > 0 && st.trimPending == 0 && !now.Before(st.adoptUntil) {
			pop := c.idleEligibleLocked(st.spec.Requirements, now)
			if pop > 0 {
				st.seq++
				st.wakeups++
				w := *st.lastWakeup
				w.Seq = st.seq
				w.Probability = c.probabilityFor(deficit, pop)
				st.lastWakeup = &w
				st.wakeupAt = now
				st.joinSinceWakeup = false
				refresh = true
				c.journalAppendLocked(journal.Record{Op: journal.OpRecompose, Inst: journal.InstanceRecord{
					ID:          uint64(st.id),
					Seq:         st.seq,
					Wakeups:     uint32(st.wakeups),
					Probability: w.Probability,
				}})
				c.met.wakeups.Inc()
				c.wakeupSpanLocked(st, w.Probability)
			}
		}
	}
	// Garbage-collect destroyed instances whose retransmission window
	// has closed: the reset envelope leaves the control file and the
	// instState leaves the tables, so the head-end stays bounded under
	// sustained create/destroy churn.
	var gced []instance.ID
	for id, st := range c.instances {
		if st.destroyed && st.resetTicks <= 0 {
			gced = append(gced, id)
		}
	}
	for _, id := range gced {
		delete(c.instances, id)
		for i, oid := range c.order {
			if oid == id {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		refresh = true
		c.journalAppendLocked(journal.Record{Op: journal.OpGC, Inst: journal.InstanceRecord{ID: uint64(id)}})
		c.met.gced.Inc()
		if c.cfg.Spans != nil {
			c.eventLocked(id, "gc", "instance=%d", id)
		}
	}
	if refresh || c.refreshPending {
		c.requestRefreshLocked()
	}
	c.mu.Unlock()
}

// noNews is the reply to a heartbeat that needs no command and no new
// period — almost every one. It is shared, so callers must not modify a
// reply.
var noNews = &control.HeartbeatReply{Command: control.CmdNone}

// replyOf returns the shared noNews reply unless cmd or period carries
// something, and only then allocates.
func replyOf(cmd control.Command, period time.Duration) *control.HeartbeatReply {
	if cmd == control.CmdNone && period == 0 {
		return noNews
	}
	return &control.HeartbeatReply{Command: cmd, Period: period}
}

// HandleHeartbeat consolidates one report and decides the reply, which
// is read-only: a reply with no news is one value shared by every call.
// It is the hot path behind every heartbeat sink: the system's node
// channels and the TCP coordinator's sessions.
// Idle heartbeats (the bulk at scale) touch only the node's shard; busy
// ones additionally take the instance table. Shard locks are never held
// while acquiring c.mu.
func (c *Controller) HandleHeartbeat(hb *control.Heartbeat) *control.HeartbeatReply {
	c.heartbeatsSeen.Add(1)
	c.met.heartbeats.Inc()
	now := c.cfg.Clock.Now()
	// Track the last-heartbeat time at one-second granularity: the
	// silence health check tolerates minutes, and the atomic load keeps
	// the common case a read-shared cache line instead of a contended
	// store per heartbeat.
	if nano := now.UnixNano(); nano-c.lastHeartbeat.Load() > int64(time.Second) {
		c.lastHeartbeat.Store(nano)
	}
	sh := c.shard(hb.NodeID)

	sh.mu.Lock()
	ni := sh.nodes[hb.NodeID]
	if ni == nil {
		ni = &nodeInfo{}
		sh.nodes[hb.NodeID] = ni
		c.nodeCount.Add(1)
		if hb.State == control.StateIdle {
			c.idleCount.Add(1)
		}
	} else if ni.state != hb.State {
		switch {
		case hb.State == control.StateIdle:
			c.idleCount.Add(1)
		case ni.state == control.StateIdle:
			c.idleCount.Add(-1)
		}
	}
	oldInstance := ni.instanceID
	ni.state = hb.State
	ni.instanceID = hb.InstanceID
	ni.profile = hb.Profile
	ni.lastSeen = now

	var period time.Duration
	if hb.State == control.StateIdle && c.cfg.TargetHeartbeatRate > 0 {
		// Back-pressure: spread the *idle* population's reports over
		// the target rate. Busy nodes keep their instance's period and
		// are not re-tuned, so sizing from the total population would
		// leave the realized idle rate below target.
		desired := time.Duration(float64(c.idleCount.Load()) / c.cfg.TargetHeartbeatRate * float64(time.Second))
		desired = min(max(desired, MinHeartbeatPeriod), MaxHeartbeatPeriod)
		cur := ni.hbPeriod
		if cur <= 0 || relDiff(cur, desired) > 0.2 {
			period = desired
			ni.hbPeriod = desired
			c.met.hbPeriod.Set(desired.Seconds())
		}
	}
	sh.mu.Unlock()

	if oldInstance == hb.InstanceID && hb.State != control.StateBusy {
		return replyOf(control.CmdNone, period) // pure idle refresh: no instance bookkeeping
	}

	c.mu.Lock()
	// Membership bookkeeping on instance changes.
	if oldInstance != hb.InstanceID {
		if old, ok := c.instances[oldInstance]; ok {
			delete(old.members, hb.NodeID)
		}
	}
	cmd := control.CmdNone
	var trimmed bool
	var instancePeriod time.Duration
	if hb.State == control.StateBusy {
		st, ok := c.instances[hb.InstanceID]
		switch {
		case !ok || st.destroyed:
			// Stray member of a dismantled instance: reset it.
			cmd = control.CmdReset
			c.met.resetsSent.Inc()
			if ok {
				st.resets++
			}
		case st.trimPending > 0:
			st.trimPending--
			st.resets++
			delete(st.members, hb.NodeID)
			trimmed = true
			cmd = control.CmdReset
			c.met.resetsSent.Inc()
			c.met.trims.Inc()
			// A trim hangs under the wakeup that overshot, so the
			// overshoot is visible in the broadcast's own trace.
			if c.cfg.Spans != nil {
				c.eventLocked(st.id, "trim", "instance=%d node=%d", st.id, hb.NodeID)
			}
		default:
			if _, member := st.members[hb.NodeID]; !member && !st.joinSinceWakeup {
				st.joinSinceWakeup = true
				c.met.wakeupToJoin.ObserveDuration(now.Sub(st.wakeupAt))
			}
			st.members[hb.NodeID] = now
		}
		if ok && st.spec.HeartbeatPeriod > 0 {
			instancePeriod = st.spec.HeartbeatPeriod
		}
	}
	c.mu.Unlock()

	if trimmed || instancePeriod > 0 {
		sh.mu.Lock()
		if cur := sh.nodes[hb.NodeID]; cur != nil {
			if trimmed {
				if cur.state != control.StateIdle {
					c.idleCount.Add(1)
				}
				cur.state = control.StateIdle
				cur.instanceID = 0
			}
			if instancePeriod > 0 {
				cur.hbPeriod = instancePeriod
			}
		}
		sh.mu.Unlock()
	}
	return replyOf(cmd, period)
}

// dumpState renders the durable control-plane state as deterministic
// text: carousel order, fixed field order, no map iteration anywhere.
// Two controllers that replayed the same journal produce
// byte-identical dumps — the recovery determinism contract.
func (c *Controller) dumpState() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b []byte
	b = fmt.Appendf(b, "nextID=%d instances=%d\n", c.nextID, len(c.instances))
	for _, st := range c.orderedLocked() {
		prob := 0.0
		if st.lastWakeup != nil {
			prob = st.lastWakeup.Probability
		}
		b = fmt.Appendf(b, "instance %d seq=%d wakeups=%d resets=%d target=%d destroyed=%t resetTicks=%d prob=%.9f file=%s digest=%x req=%+v hb=%s life=%s\n",
			st.id, st.seq, st.wakeups, st.resets, st.spec.Target, st.destroyed,
			st.resetTicks, prob, st.imageFile, st.imageDigest,
			st.spec.Requirements, st.spec.HeartbeatPeriod, st.spec.Lifetime)
	}
	return string(b)
}
