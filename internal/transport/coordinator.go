package transport

import (
	"bufio"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/instance"
	"oddci/internal/journal"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/workload"
)

// CoordinatorConfig assembles the server side of a TCP deployment: the
// Controller head-end and Backend roles in one process.
type CoordinatorConfig struct {
	// Listen is the TCP address ("127.0.0.1:0" for tests).
	Listen string
	// Name labels the deployment in the banner.
	Name string
	// Image is the application image staged to nodes.
	Image *appimage.Image
	// Probability gates node participation (default 1).
	Probability float64
	// Requirements filter devices.
	Requirements instance.Requirements
	// HeartbeatPeriod instructs the nodes (default 10 s).
	HeartbeatPeriod time.Duration
	// Clock drives the backend's lease timestamps and the coordinator's
	// heartbeat bookkeeping (default wall clock). Injecting a simulated
	// clock keeps transport timestamps consistent with simtime-driven
	// tests.
	Clock simtime.Clock
	// Key signs control frames; generated if nil.
	Key ed25519.PrivateKey
	// Obs, if set, collects coordinator, transport and backend
	// telemetry (oddci_coordinator_*, oddci_transport_*,
	// oddci_backend_*) and registers the heartbeat-silence health
	// check.
	Obs *obs.Registry
	// Spans, if set, enables end-to-end causal tracing: the wakeup on
	// the wire starts a root span whose context rides in the banner,
	// node sessions record under it, and the backend closes each task's
	// tree with dispatch/lease-expiry/commit spans.
	Spans *span.Collector
	// Shard identifies this coordinator's slice of a federated control
	// plane; it rides in the banner so nodes can confirm which shard
	// answered. 0 (the default) is also the first shard id — single-
	// coordinator deployments simply never check it.
	Shard int
	// RetryAfter is the backend's no-task polling hint (default 1 s).
	RetryAfter time.Duration
	// LeaseBase is the backend's minimum task lease (default 30 s);
	// fault-injection tests shorten it to force lease-expiry retries.
	LeaseBase time.Duration
	// CredentialMode selects the backend's result-credential policy.
	// Any mode but CredOff attaches a credential to every assignment;
	// what happens to a result that comes back without it is this
	// policy's call (CredWarn tolerates, CredEnforce rejects).
	CredentialMode backend.CredentialMode
	// StateDir, if set, makes the coordinator durable across restarts:
	// the signing key persists (nodes keep verifying the same identity,
	// unless Key is given explicitly) and the wakeup sequence resumes
	// past its pre-crash value, so nodes that already evaluated the old
	// broadcast re-evaluate the new one instead of ignoring a replayed
	// seq.
	StateDir string
}

// imageStage is one immutable generation of the staged broadcast: the
// signed control frame and the content-addressed manifest + chunk
// frames, one chunk per appimage.ChunkBytes of the image. Sessions read
// the current stage through an atomic pointer; UpdateImage swaps in a
// successor that reuses every pre-encoded chunk frame whose digest
// survived, so re-staging re-encodes only changed content.
type imageStage struct {
	epoch   uint64
	seq     uint32
	wakeups uint32

	ctrlFrame     []byte
	manifestFrame []byte
	// distinct lists each distinct chunk's digest once, in order of
	// first appearance; chunkFrames holds each pre-encoded as a complete
	// frame.
	distinct    []appimage.Digest
	chunkFrames map[appimage.Digest][]byte
	// bytes is what a joining session is sent: control + manifest +
	// every distinct chunk frame.
	bytes int
}

// nodeSet is a counted set of node IDs. Add runs once per session, at
// hello; Len is a single atomic load (O(1) for /metrics scrapes).
type nodeSet struct {
	mu    sync.Mutex
	m     map[uint64]struct{}
	count atomic.Int64
}

// Add inserts id.
func (s *nodeSet) Add(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[id]; !ok {
		s.m[id] = struct{}{}
		s.count.Add(1)
	}
}

// Has reports membership.
func (s *nodeSet) Has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[id]
	return ok
}

// Len returns the distinct-node count without taking the lock.
func (s *nodeSet) Len() int { return int(s.count.Load()) }

// coordMetrics are the transport-plane telemetry handles (all nil-safe
// when the coordinator runs without a registry).
type coordMetrics struct {
	heartbeats *obs.Counter
	sessions   *obs.Counter

	framesInHB      *obs.Counter
	framesInTaskReq *obs.Counter
	framesInTaskRes *obs.Counter
	framesInOther   *obs.Counter
	framesOut       *obs.Counter
	bytesIn         *obs.Counter
	bytesOut        *obs.Counter
	broadcastBytes  *obs.Counter
	restages        *obs.Counter
	restageBytes    *obs.Counter

	readLat  *obs.Histogram
	writeLat *obs.Histogram
}

// Coordinator is the listening process.
type Coordinator struct {
	cfg       CoordinatorConfig
	ln        net.Listener
	pub       ed25519.PublicKey
	be        *backend.Backend
	store     *journal.Store
	recovered bool

	// Encode-once broadcast: the banner frame and the staged carousel
	// (control file, manifest, chunks) are encoded once per image
	// generation and written verbatim to every session — per-node cost
	// is a memcpy into the socket, never a marshal. UpdateImage swaps
	// the stage pointer; sessions pick the new generation up at their
	// next heartbeat.
	bannerFrame  []byte
	stage        atomic.Pointer[imageStage]
	hbReplyFrame []byte
	encodeOps    atomic.Int64
	// updateMu serializes UpdateImage (stage readers are lock-free).
	updateMu sync.Mutex

	// wakeupCtx is the root wakeup span's context — one constant per
	// coordinator lifetime, so the banner carrying it stays a shared
	// pre-encoded buffer. Zero when tracing is off or unsampled.
	wakeupCtx span.Context

	// Session accounting: atomics and a counted node set, so heartbeats
	// from N sessions never serialize on one coordinator-global mutex.
	heartbeats   atomic.Int64
	lastBeatNano atomic.Int64
	nodes        nodeSet

	mu     sync.Mutex // guards closed only
	closed bool

	met coordMetrics

	wg sync.WaitGroup
}

// NewCoordinator binds the listener and prepares the signed control
// file plus the pre-encoded broadcast frames.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Image == nil {
		return nil, errors.New("transport: coordinator needs an image")
	}
	if cfg.Probability == 0 {
		cfg.Probability = 1
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.NewReal()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.LeaseBase <= 0 {
		cfg.LeaseBase = 30 * time.Second
	}
	// Durable identity and sequence continuity. before stands in for the
	// generation this process stages a delta from: nothing on a fresh
	// start, the recorded sequence after a restart — so nodes that
	// already evaluated the pre-crash wakeup evaluate this one afresh.
	var store *journal.Store
	before := &imageStage{}
	if cfg.StateDir != "" {
		if cfg.Key == nil {
			key, err := journal.LoadOrCreateKey(cfg.StateDir)
			if err != nil {
				return nil, err
			}
			cfg.Key = key
		}
		var err error
		store, err = journal.Open(cfg.StateDir, journal.Options{Obs: cfg.Obs, Clock: cfg.Clock})
		if err != nil {
			return nil, err
		}
		state, err := store.Load()
		if err != nil {
			store.Close()
			return nil, err
		}
		if rec := state.Instances[1]; rec != nil {
			before.seq, before.wakeups = rec.Seq, rec.Wakeups
		}
	}
	if cfg.Key == nil {
		_, key, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, err
		}
		cfg.Key = key
	}
	be, err := backend.New(backend.Config{
		Clock:          cfg.Clock,
		RetryAfter:     cfg.RetryAfter,
		LeaseBase:      cfg.LeaseBase,
		Obs:            cfg.Obs,
		Spans:          cfg.Spans,
		CredentialMode: cfg.CredentialMode,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		ln:        ln,
		pub:       cfg.Key.Public().(ed25519.PublicKey),
		be:        be,
		store:     store,
		recovered: before.seq != 0,
		nodes:     nodeSet{m: make(map[uint64]struct{})},
	}
	st, err := c.stageImage(before, cfg.Image)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.stage.Store(st)

	// The wakeup on the wire roots the deployment's trace. Its context
	// rides in the banner — one constant value for the coordinator's
	// lifetime, so the encode-once invariant below survives tracing.
	if wakeupSp := cfg.Spans.Root("wakeup", "coordinator"); wakeupSp != nil {
		wakeupSp.SetDetail("instance=1 seq=%d p=%.2f", st.seq, cfg.Probability)
		cfg.Spans.SetLink(span.LinkKey(1, uint64(st.seq)), wakeupSp.Context())
		c.wakeupCtx = wakeupSp.Context()
		wakeupSp.End()
	}

	bannerRaw, err := json.Marshal(&Banner{
		Wire: WireVersion, ControllerKey: c.pub, Name: cfg.Name,
		Trace: c.wakeupCtx, Shard: cfg.Shard,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	if c.bannerFrame, err = AppendFrame(nil, FrameBanner, bannerRaw); err != nil {
		c.Close()
		return nil, err
	}
	c.encodeOps.Add(1)
	reply := control.EncodeHeartbeatReply(&control.HeartbeatReply{Command: control.CmdNone})
	if c.hbReplyFrame, err = AppendFrame(nil, FrameHeartbeatReply, reply); err != nil {
		c.Close()
		return nil, err
	}

	c.instrument(cfg.Obs)
	return c, nil
}

// stageImage builds the generation after prev: it hashes each chunk
// once (appimage.ChunkDigests, which spreads them over the cores), signs
// the wakeup over the root of those digests under the next sequence,
// pre-encodes the control, manifest and chunk frames, and journals the
// result. prev donates every chunk frame whose digest is unchanged, so
// only new content costs an encode — the per-chunk form of the
// encode-once invariant. A first staging is the same delta, from a prev
// that holds nothing. The caller publishes the returned stage.
func (c *Coordinator) stageImage(prev *imageStage, img *appimage.Image) (*imageStage, error) {
	imgRaw, err := img.Encode()
	if err != nil {
		return nil, err
	}
	st := &imageStage{
		seq: prev.seq + 1, wakeups: prev.wakeups + 1,
		chunkFrames: make(map[appimage.Digest][]byte),
	}
	manifest := ImageManifest{Name: "image.1", Size: len(imgRaw), Digests: appimage.ChunkDigests(nil, imgRaw)}
	for i, d := range manifest.Digests {
		ch := imgRaw[i*appimage.ChunkBytes : min((i+1)*appimage.ChunkBytes, len(imgRaw))]
		if _, ok := st.chunkFrames[d]; ok {
			continue // duplicate content within the image
		}
		frame, ok := prev.chunkFrames[d] // unchanged: reused verbatim, no encode
		if !ok {
			frame = BeginFrame(make([]byte, 0, 5+len(d)+len(ch)), FrameImageChunk)
			if frame, err = EndFrame(AppendImageChunk(frame, d, ch), 0); err != nil {
				return nil, err
			}
			c.encodeOps.Add(1)
		}
		st.distinct = append(st.distinct, d)
		st.chunkFrames[d] = frame
		st.bytes += len(frame)
	}
	ctrlFile, err := control.SignWakeup(&control.Wakeup{
		InstanceID:      1,
		Seq:             st.seq,
		Probability:     c.cfg.Probability,
		Requirements:    c.cfg.Requirements,
		ImageFile:       "image.1",
		ImageDigest:     appimage.RootOf(len(imgRaw), manifest.Digests),
		HeartbeatPeriod: c.cfg.HeartbeatPeriod,
	}, c.cfg.Key)
	if err != nil {
		return nil, err
	}
	if st.ctrlFrame, err = AppendFrame(nil, FrameControl, ctrlFile); err != nil {
		return nil, err
	}
	c.encodeOps.Add(1)
	if st.manifestFrame, err = AppendFrame(nil, FrameImageManifest, AppendImageManifest(nil, &manifest)); err != nil {
		return nil, err
	}
	c.encodeOps.Add(1)
	st.bytes += len(st.ctrlFrame) + len(st.manifestFrame)

	if c.store != nil {
		rec := journal.InstanceRecord{
			ID:              1,
			Seq:             st.seq,
			Wakeups:         st.wakeups,
			Probability:     c.cfg.Probability,
			Target:          1,
			HeartbeatPeriod: c.cfg.HeartbeatPeriod,
			Requirements:    c.cfg.Requirements,
			ImageFile:       "image.1",
			Image:           imgRaw,
		}
		if prev.seq == 0 { // nothing recorded before: the journal's first entry
			err = c.store.Append(journal.Record{Op: journal.OpCreate, Inst: rec})
		} else {
			// Restarted or updated: compact to a one-record snapshot
			// carrying the bumped sequence and the current image, so the
			// next restart resumes past it.
			snap := journal.NewState()
			snap.NextID = 2
			snap.Instances[1] = &rec
			snap.Order = []uint64{1}
			err = c.store.Compact(snap)
		}
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// UpdateImage recomposes the staged application image mid-flight: the
// wakeup re-signs under the next sequence, the manifest re-encodes, and
// chunk frames re-encode only for changed content. Connected sessions
// are re-staged at their next heartbeat with just the chunks the new
// manifest lists and their previous one did not.
func (c *Coordinator) UpdateImage(img *appimage.Image) error {
	if img == nil {
		return errors.New("transport: UpdateImage needs an image")
	}
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	prev := c.stage.Load()
	st, err := c.stageImage(prev, img)
	if err != nil {
		return err
	}
	st.epoch = prev.epoch + 1
	c.stage.Store(st)
	return nil
}

// instrument registers coordinator telemetry and the heartbeat-silence
// health check.
func (c *Coordinator) instrument(reg *obs.Registry) {
	c.met = coordMetrics{
		heartbeats:      reg.Counter("oddci_coordinator_heartbeats_total", "Heartbeat frames received from nodes"),
		sessions:        reg.Counter("oddci_coordinator_sessions_total", "Node TCP sessions accepted"),
		framesInHB:      reg.Counter("oddci_transport_frames_in_heartbeat_total", "Heartbeat frames read"),
		framesInTaskReq: reg.Counter("oddci_transport_frames_in_task_request_total", "Task-request frames read"),
		framesInTaskRes: reg.Counter("oddci_transport_frames_in_task_result_total", "Task-result frames read"),
		framesInOther:   reg.Counter("oddci_transport_frames_in_other_total", "Frames read of any other type"),
		framesOut:       reg.Counter("oddci_transport_frames_out_total", "Frames written to node sessions"),
		bytesIn:         reg.Counter("oddci_transport_bytes_in_total", "Frame bytes read from node sessions"),
		bytesOut:        reg.Counter("oddci_transport_bytes_out_total", "Frame bytes written to node sessions"),
		broadcastBytes:  reg.Counter("oddci_transport_broadcast_bytes_total", "Pre-encoded broadcast bytes staged to sessions"),
		restages:        reg.Counter("oddci_transport_restages_total", "Mid-session image re-stagings pushed to sessions"),
		restageBytes:    reg.Counter("oddci_transport_restage_bytes_total", "Bytes pushed by mid-session re-stagings (control + manifest + missing chunks only)"),
		readLat:         reg.Histogram("oddci_transport_frame_read_seconds", "Frame payload drain latency after the header arrived", nil),
		writeLat:        reg.Histogram("oddci_transport_frame_write_seconds", "Session write-flush latency", nil),
	}
	if reg == nil {
		return
	}
	reg.GaugeFunc("oddci_coordinator_nodes_seen", "Distinct node IDs that have connected", func() float64 {
		return float64(c.nodes.Len())
	})
	reg.GaugeFunc("oddci_transport_broadcast_encodes", "Broadcast artifacts encoded since start (flat in the session count)", func() float64 {
		return float64(c.encodeOps.Load())
	})
	reg.GaugeFunc("oddci_transport_image_epoch", "Staged image generation (bumped by UpdateImage)", func() float64 {
		return float64(c.stage.Load().epoch)
	})
	reg.GaugeFunc("oddci_transport_frame_pool_hits", "Frame buffer requests served within the pool size cap (process-wide)", func() float64 {
		h, _ := FramePoolStats()
		return float64(h)
	})
	reg.GaugeFunc("oddci_transport_frame_pool_misses", "Frame buffer requests above the pool size cap (process-wide)", func() float64 {
		_, m := FramePoolStats()
		return float64(m)
	})
	reg.RegisterHealth("heartbeat-silence", func() error {
		// Sampled from atomics at one-second granularity: the check
		// never touches the heartbeat data path.
		nano := c.lastBeatNano.Load()
		if c.nodes.Len() == 0 || nano == 0 {
			return nil
		}
		// Tolerate three missed periods while nodes are connected.
		limit := 3 * c.cfg.HeartbeatPeriod
		if silent := c.cfg.Clock.Now().Sub(time.Unix(0, nano)); silent > limit {
			return fmt.Errorf("no heartbeat for %v (limit %v)", silent.Round(time.Millisecond), limit)
		}
		return nil
	})
}

// Addr returns the bound address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// PublicKey returns the Controller key nodes should pin.
func (c *Coordinator) PublicKey() ed25519.PublicKey { return c.pub }

// Seq returns the wakeup sequence on the wire (bumped past the recorded
// one after a StateDir restart, and by each UpdateImage).
func (c *Coordinator) Seq() uint32 { return c.stage.Load().seq }

// ImageEpoch returns the staged image generation (zero at construction,
// bumped by each UpdateImage).
func (c *Coordinator) ImageEpoch() uint64 { return c.stage.Load().epoch }

// StagedChunks returns how many distinct content-addressed chunk frames
// the current stage holds.
func (c *Coordinator) StagedChunks() int { return len(c.stage.Load().chunkFrames) }

// Recovered reports whether this coordinator resumed from a StateDir
// written by a previous run.
func (c *Coordinator) Recovered() bool { return c.recovered }

// Backend exposes the scheduler for job submission.
func (c *Coordinator) Backend() *backend.Backend { return c.be }

// WakeupTraceContext returns the root wakeup span's context (zero when
// tracing is off or the trace was not sampled).
func (c *Coordinator) WakeupTraceContext() span.Context { return c.wakeupCtx }

// HeartbeatCount returns how many heartbeats sessions have consumed.
func (c *Coordinator) HeartbeatCount() int64 { return c.heartbeats.Load() }

// NodeCount returns the number of distinct node IDs seen, in O(1).
func (c *Coordinator) NodeCount() int { return c.nodes.Len() }

// SeenNode reports whether a node ID ever connected.
func (c *Coordinator) SeenNode(id uint64) bool { return c.nodes.Has(id) }

// LastHeartbeat returns the last heartbeat arrival sampled at
// one-second granularity (zero time before the first beat).
func (c *Coordinator) LastHeartbeat() time.Time {
	nano := c.lastBeatNano.Load()
	if nano == 0 {
		return time.Time{}
	}
	return time.Unix(0, nano)
}

// BroadcastEncodes counts the broadcast artifacts (banner, control
// file, manifest, chunks) encoded since construction — flat in the
// number of sessions by design.
func (c *Coordinator) BroadcastEncodes() int64 { return c.encodeOps.Load() }

// BroadcastBytes returns the size of the pre-encoded staged broadcast
// (control + manifest + distinct chunk frames) each joining session
// receives.
func (c *Coordinator) BroadcastBytes() int { return c.stage.Load().bytes }

// Submit enqueues a job and marks the backend draining so nodes go home
// when it finishes.
func (c *Coordinator) Submit(job *workload.Job) (*backend.JobHandle, error) {
	h, err := c.be.Submit(job)
	if err != nil {
		return nil, err
	}
	c.be.SetDraining(true)
	return h, nil
}

// Serve accepts node connections until Close. It returns after the
// listener closes and every session ends.
func (c *Coordinator) Serve() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			break
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer conn.Close()
			c.session(conn)
		}()
	}
	c.wg.Wait()
}

// Close shuts the listener down; active sessions end when their nodes
// disconnect.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.ln.Close()
	if c.store != nil {
		c.store.Close()
	}
}

// Drain closes the listener and waits up to d for active node sessions
// to wind down (each node needs one more poll to receive Done).
func (c *Coordinator) Drain(d time.Duration) {
	c.Close()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
	}
}

// sessionWriteBuf sizes the per-session bufio writer: replies batch
// here until the session would otherwise block in a read.
const sessionWriteBuf = 32 << 10

// session runs one node connection. The loop is single-goroutine, so
// writes need no lock: replies accumulate in the buffered writer and
// flush right before the session blocks waiting for the next frame —
// pipelined heartbeats and task hand-offs coalesce into one syscall.
func (c *Coordinator) session(conn net.Conn) {
	bw := bufio.NewWriterSize(conn, sessionWriteBuf)
	fr := NewFrameReader(conn)
	defer fr.Close()
	fr.Instrument(c.met.readLat, c.cfg.Clock)

	flush := func() error {
		if bw.Buffered() == 0 {
			return nil
		}
		var t0 time.Time
		if c.met.writeLat != nil {
			t0 = c.cfg.Clock.Now()
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if c.met.writeLat != nil {
			c.met.writeLat.ObserveDuration(c.cfg.Clock.Now().Sub(t0))
		}
		return nil
	}

	// Banner, then the staged "broadcast" after the hello: every
	// artifact is an immutable pre-encoded buffer shared by all sessions
	// — zero per-node marshaling.
	if _, err := bw.Write(c.bannerFrame); err != nil {
		return
	}
	c.met.framesOut.Inc()
	c.met.bytesOut.Add(int64(len(c.bannerFrame)))
	if err := flush(); err != nil {
		return
	}
	t, payload, err := fr.Next()
	if err != nil || t != FrameHello {
		return
	}
	c.met.bytesIn.Add(int64(5 + len(payload)))
	var hello Hello
	if err := json.Unmarshal(payload, &hello); err != nil || hello.Wire != WireVersion {
		return // the banner already told the peer which wire this is
	}
	c.nodes.Add(hello.NodeID)
	c.met.sessions.Inc()

	sessSp := c.cfg.Spans.Start(c.wakeupCtx, "session", "coordinator")
	sessSp.SetDetail("node=%d", hello.NodeID)
	defer sessSp.End()

	// Staged broadcast push: the signed control, the manifest, and every
	// chunk the session does not hold — all of them at join, only the
	// new ones at a re-stage. The session holds exactly the chunks of
	// the last stage pushed (the node keeps the same set), so nothing
	// grows across updates and a push allocates nothing. The per-session
	// cost is a memcpy of immutable pre-encoded buffers.
	pushed := &imageStage{} // holds nothing: the join pushes every chunk
	pushStage := func(st *imageStage) (int, error) {
		wrote, frames := 0, int64(0)
		write := func(b []byte) error {
			if _, err := bw.Write(b); err != nil {
				return err
			}
			wrote += len(b)
			frames++
			return nil
		}
		err := write(st.ctrlFrame)
		if err == nil {
			err = write(st.manifestFrame)
		}
		for _, d := range st.distinct {
			if err != nil {
				break
			}
			if _, held := pushed.chunkFrames[d]; !held {
				err = write(st.chunkFrames[d])
			}
		}
		pushed = st
		c.met.framesOut.Add(frames)
		c.met.bytesOut.Add(int64(wrote))
		c.met.broadcastBytes.Add(int64(wrote))
		return wrote, err
	}
	if _, err := pushStage(c.stage.Load()); err != nil {
		return
	}
	if err := flush(); err != nil {
		return
	}

	// Reused hot-path state: decode targets, the frame build buffer and
	// the assignment the backend writes into live for the whole session.
	// reply encodes the assignment before the next read, so the next
	// dispatch may overwrite it, token included.
	var (
		wbuf  []byte
		req   TaskRequestMsg
		res   TaskResultMsg
		beReq backend.TaskRequest
		asg   backend.TaskAssign
	)
	reply := func(resp any) error {
		switch m := resp.(type) {
		case *backend.TaskAssign:
			// The backend attaches a credential iff its mode issues them
			// and a dispatch context iff it has a collector; both ride
			// whenever present.
			wbuf = BeginFrame(wbuf[:0], FrameTaskAssign)
			wbuf = AppendTaskAssign(wbuf, &TaskAssignMsg{
				JobID: m.JobID, TaskID: m.TaskID,
				RefSeconds: m.RefSeconds, OutputSize: m.OutputSize,
				Payload: m.Payload, Cred: m.Credential, Trace: m.Trace,
			})
		case *backend.NoTask:
			wbuf = BeginFrame(wbuf[:0], FrameNoTask)
			wbuf = AppendNoTask(wbuf, &NoTaskMsg{RetryAfterMS: m.RetryAfter.Milliseconds(), Done: m.Done})
		default:
			return nil
		}
		var err error
		if wbuf, err = EndFrame(wbuf, 0); err != nil {
			return err
		}
		_, err = bw.Write(wbuf)
		c.met.framesOut.Inc()
		c.met.bytesOut.Add(int64(len(wbuf)))
		return err
	}

	for {
		// Flush point: batch replies until the next read would block.
		if fr.Buffered() == 0 {
			if err := flush(); err != nil {
				return
			}
		}
		t, payload, err := fr.Next()
		if err != nil {
			return
		}
		c.met.bytesIn.Add(int64(5 + len(payload)))
		switch t {
		case FrameHeartbeat:
			c.met.framesInHB.Inc()
			if _, err := control.DecodeHeartbeat(payload); err != nil {
				continue
			}
			c.heartbeats.Add(1)
			// One-second-granularity atomic sample (same trick as
			// Controller.HandleHeartbeat): the silence health check
			// tolerates minutes, and the load keeps the common case a
			// read-shared cache line instead of a contended store.
			if nano := c.cfg.Clock.Now().UnixNano(); nano-c.lastBeatNano.Load() > int64(time.Second) {
				c.lastBeatNano.Store(nano)
			}
			c.met.heartbeats.Inc()
			if _, err := bw.Write(c.hbReplyFrame); err != nil {
				return
			}
			c.met.framesOut.Inc()
			c.met.bytesOut.Add(int64(len(c.hbReplyFrame)))
			// Heartbeats are the re-staging tick: a session whose stage is
			// stale gets the new control + manifest + only the chunks its
			// previous manifest did not list.
			if cur := c.stage.Load(); cur != pushed {
				wrote, err := pushStage(cur)
				if err != nil {
					return
				}
				c.met.restageBytes.Add(int64(wrote))
				c.met.restages.Inc()
			}
		case FrameTaskRequest:
			c.met.framesInTaskReq.Inc()
			if err := DecodeTaskRequest(payload, &req); err != nil {
				continue
			}
			beReq.NodeID = req.NodeID
			beReq.Trace = req.Trace
			if err := reply(c.be.HandleRequestInto(&beReq, &asg)); err != nil {
				return
			}
		case FrameTaskResult:
			c.met.framesInTaskRes.Inc()
			if err := DecodeTaskResult(payload, &res); err != nil {
				continue
			}
			c.be.HandleResult(&backend.TaskResult{
				NodeID: res.NodeID, JobID: res.JobID, TaskID: res.TaskID,
				Payload: res.Payload, Credential: res.Cred, Trace: res.Trace,
			})
		default:
			// Unknown frames are ignored for forward compatibility.
			c.met.framesInOther.Inc()
		}
	}
}
