package transport

import (
	"bufio"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/controller"
	"oddci/internal/core/instance"
	"oddci/internal/dsmcc"
	"oddci/internal/journal"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/workload"
)

// CoordinatorConfig assembles the server side of a TCP deployment: a
// Controller whose head-end is this coordinator, and a Backend, in one
// process.
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
	// Obs, if set, collects controller, coordinator, transport and
	// backend telemetry (oddci_controller_*, oddci_coordinator_*,
	// oddci_transport_*, oddci_backend_*) and the Controller's health
	// checks, heartbeat-silence among them.
	Obs *obs.Registry
	// Spans, if set, enables end-to-end causal tracing: the Controller's
	// wakeup starts a root span whose context rides in the banner, node
	// sessions record under it, and the backend closes each task's tree
	// with dispatch/lease-expiry/commit spans.
	Spans *span.Collector
	// CredentialMode selects the backend's result-credential policy.
	// Any mode but CredOff attaches a credential to every assignment;
	// what happens to a result that comes back without it is this
	// policy's call (CredWarn tolerates, CredEnforce rejects).
	CredentialMode backend.CredentialMode
	// StateDir, if set, makes the coordinator durable across restarts:
	// the signing key persists (nodes keep verifying the same identity;
	// without a StateDir each coordinator generates its own key) and the
	// Controller journals its instance there. A restart recomposes the
	// recorded instance with Image, so the wakeup sequence resumes past
	// its pre-crash value and nodes that already evaluated the old
	// broadcast re-evaluate the new one; the instance keeps its recorded
	// probability, requirements and heartbeat period.
	StateDir string

	// clock drives the Controller, the backend's lease timestamps and
	// the coordinator's telemetry (default wall clock). Injecting a
	// simulated clock keeps transport timestamps consistent with
	// simtime-driven tests.
	clock simtime.Clock
	// retryAfter is the backend's no-task polling hint (default 1 s).
	retryAfter time.Duration
	// leaseBase is the backend's minimum task lease (default 30 s);
	// fault-injection tests shorten it to force lease-expiry retries.
	leaseBase time.Duration
}

// EveryNode is the target size of a coordinator's instance: every node
// that answers the wakeup is wanted. It is the largest target the
// journal records.
const EveryNode = math.MaxInt32

// imageStage is one immutable generation of the staged broadcast: the
// Controller's control file as one frame, and the content-addressed
// manifest + chunk frames of its image, one chunk per
// appimage.ChunkBytes. Sessions read the current stage through an
// atomic pointer; each head-end update swaps in a successor that reuses
// every chunk frame header whose digest survived, so re-staging encodes
// only changed content.
type imageStage struct {
	ctrlFrame     []byte
	manifestFrame []byte
	// raw is the image file as the Controller staged it. The Controller
	// never writes to it, so chunk frames send their bytes straight from
	// it and the image is held once, not again as frames.
	raw []byte
	// distinct lists each distinct chunk's digest once, in order of
	// first appearance.
	distinct []appimage.Digest
	chunks   map[appimage.Digest]stagedChunk
	// bytes is what a joining session is sent: control + manifest +
	// every distinct chunk frame.
	bytes int
}

// stagedChunk is one distinct chunk of a stage: its pre-encoded frame
// header (type, length, digest), which its bytes follow on the wire, and
// the first slot of the image it fills.
type stagedChunk struct {
	hdr  []byte
	slot int
}

// chunk returns the frame header and the bytes of distinct chunk d.
func (st *imageStage) chunk(d appimage.Digest) (hdr, data []byte) {
	c := st.chunks[d]
	lo := c.slot * appimage.ChunkBytes
	return c.hdr, st.raw[lo:min(lo+appimage.ChunkBytes, len(st.raw))]
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

// Len returns the distinct-node count without taking the lock.
func (s *nodeSet) Len() int { return int(s.count.Load()) }

// coordMetrics are the transport-plane telemetry handles (all nil-safe
// when the coordinator runs without a registry).
type coordMetrics struct {
	sessions *obs.Counter

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

// Coordinator is the listening process. It is the head-end of its own
// Controller (controller.HeadEnd): the Controller owns the instance —
// wakeup sequence, journal, heartbeat consolidation, size — and hands
// the coordinator each generation of its files, which every session
// receives as pushed frames.
type Coordinator struct {
	cfg   CoordinatorConfig
	ln    net.Listener
	pub   ed25519.PublicKey
	be    *backend.Backend
	ctrl  *controller.Controller
	id    instance.ID
	store *journal.Store

	// Encode-once broadcast: the banner frame and the staged files
	// (control file, manifest, chunks) are encoded once per generation
	// and written verbatim to every session — per-node cost is a memcpy
	// into the socket, never a marshal. Update swaps the stage pointer;
	// sessions pick the new generation up at their next heartbeat.
	bannerFrame  []byte
	stage        atomic.Pointer[imageStage]
	hbReplyFrame []byte
	encodeOps    atomic.Int64

	// wakeupCtx is the context of the wakeup that created (or, after a
	// restart, recomposed) the instance — one constant per coordinator
	// lifetime, so the banner carrying it stays a shared pre-encoded
	// buffer. Zero when tracing is off or unsampled.
	wakeupCtx span.Context

	// nodes counts the distinct node IDs that said hello, so sessions
	// never serialize on one coordinator-global mutex.
	nodes nodeSet

	mu     sync.Mutex // guards closed only
	closed bool

	met coordMetrics

	wg sync.WaitGroup
}

// NewCoordinator binds the listener, starts the Controller over this
// coordinator as its head-end, and creates (or, over a recovered
// StateDir, recomposes) the instance, which stages the pre-encoded
// broadcast frames.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Image == nil {
		return nil, errors.New("transport: coordinator needs an image")
	}
	if err := checkImageSize(cfg.Image); err != nil {
		return nil, err
	}
	if cfg.Probability == 0 {
		cfg.Probability = 1
	}
	if cfg.HeartbeatPeriod <= 0 {
		cfg.HeartbeatPeriod = 10 * time.Second
	}
	if cfg.clock == nil {
		cfg.clock = simtime.NewReal()
	}
	if cfg.retryAfter <= 0 {
		cfg.retryAfter = time.Second
	}
	if cfg.leaseBase <= 0 {
		cfg.leaseBase = 30 * time.Second
	}
	c := &Coordinator{cfg: cfg, nodes: nodeSet{m: make(map[uint64]struct{})}}
	c.stage.Store(&imageStage{})
	if err := c.start(); err != nil {
		c.Close()
		return nil, err
	}
	c.instrument(cfg.Obs)
	return c, nil
}

// start builds what NewCoordinator assembles; Close releases whatever
// it got to.
func (c *Coordinator) start() error {
	cfg := &c.cfg
	var (
		key ed25519.PrivateKey
		err error
	)
	if cfg.StateDir != "" {
		if key, err = journal.LoadOrCreateKey(cfg.StateDir); err != nil {
			return err
		}
		if c.store, err = journal.Open(cfg.StateDir, journal.Options{Obs: cfg.Obs, Clock: cfg.clock}); err != nil {
			return err
		}
	} else if _, key, err = ed25519.GenerateKey(rand.Reader); err != nil {
		return err
	}
	c.pub = key.Public().(ed25519.PublicKey)
	if c.be, err = backend.New(backend.Config{
		Clock:          cfg.clock,
		RetryAfter:     cfg.retryAfter,
		LeaseBase:      cfg.leaseBase,
		Obs:            cfg.Obs,
		Spans:          cfg.Spans,
		CredentialMode: cfg.CredentialMode,
	}); err != nil {
		return err
	}
	if c.ln, err = net.Listen("tcp", cfg.Listen); err != nil {
		return err
	}
	if c.ctrl, err = controller.New(controller.Config{
		Clock: cfg.clock, Broadcaster: c, Key: key,
		Obs: cfg.Obs, Spans: cfg.Spans, Journal: c.store,
	}); err != nil {
		return err
	}
	if err = c.ctrl.Start(); err != nil {
		return err
	}
	// One instance per coordinator: a recovered live one takes the image
	// under the next sequence; otherwise the instance is created.
	if st, serr := c.ctrl.Status(1); serr == nil && !st.Destroyed {
		c.id, err = 1, c.ctrl.Recompose(1, cfg.Image)
	} else {
		c.id, err = c.ctrl.CreateInstance(controller.InstanceSpec{
			Image:              cfg.Image,
			Target:             EveryNode,
			Requirements:       cfg.Requirements,
			HeartbeatPeriod:    cfg.HeartbeatPeriod,
			InitialProbability: cfg.Probability,
		})
	}
	if err != nil {
		return err
	}
	c.wakeupCtx = c.ctrl.WakeupTraceContext(c.id, c.Seq())

	bannerRaw, err := json.Marshal(&Banner{
		Wire: WireVersion, ControllerKey: c.pub, Name: cfg.Name,
		Trace: c.wakeupCtx,
	})
	if err != nil {
		return err
	}
	if c.bannerFrame, err = AppendFrame(nil, FrameBanner, bannerRaw); err != nil {
		return err
	}
	c.encodeOps.Add(1)
	c.hbReplyFrame, err = AppendFrame(nil, FrameHeartbeatReply, control.EncodeHeartbeatReply(&control.HeartbeatReply{}))
	return err
}

// Update stages the Controller's files as the next generation: the
// controller.HeadEnd contract. The
// control file goes out verbatim as the control frame; the one image
// file is split into appimage.ChunkBytes chunks, and a manifest frame
// lists them under the digests the Controller hashed (File.Chunks), so
// the coordinator hashes nothing. The previous stage donates every
// chunk frame whose digest is unchanged, so only new content costs an
// encode — the per-chunk form of the encode-once invariant; a first
// staging is the same delta from a stage that holds nothing. The PNA
// code file has no TCP counterpart (a node is its own agent), and
// Check's refusals are Update's.
func (c *Coordinator) Update(files []dsmcc.File) error {
	ctrlFile, img, err := stageFiles(files)
	if err != nil {
		return err
	}
	prev := c.stage.Load()
	st := &imageStage{chunks: make(map[appimage.Digest]stagedChunk)}
	if len(ctrlFile) > 0 {
		if st.ctrlFrame, err = AppendFrame(nil, FrameControl, ctrlFile); err != nil {
			return err
		}
		c.encodeOps.Add(1)
	}
	if img != nil {
		st.raw = img.Data
		for i, d := range img.Chunks {
			if _, ok := st.chunks[d]; ok {
				continue // duplicate content within the image
			}
			n := len(appimage.Chunk(st.raw, i))
			hdr := prev.chunks[d].hdr // unchanged content: reused, no encode
			if hdr == nil {
				hdr = binary.BigEndian.AppendUint32([]byte{byte(FrameImageChunk)}, uint32(len(d)+n))
				hdr = AppendImageChunk(hdr, d, nil) // the frame up to the chunk's bytes
				c.encodeOps.Add(1)
			}
			st.distinct = append(st.distinct, d)
			st.chunks[d] = stagedChunk{hdr: hdr, slot: i}
			st.bytes += len(hdr) + n
		}
		if st.manifestFrame, err = AppendFrame(nil, FrameImageManifest, AppendImageManifest(nil, img.Name, len(st.raw), img.Chunks)); err != nil {
			return err
		}
		c.encodeOps.Add(1)
	}
	st.bytes += len(st.ctrlFrame) + len(st.manifestFrame)
	c.stage.Store(st)
	return nil
}

// Check reports the error Update would return for files, changing
// nothing: the controller.HeadEnd contract.
func (c *Coordinator) Check(files []dsmcc.File) error {
	_, _, err := stageFiles(files)
	return err
}

// stageFiles picks the control file and the image file out of files,
// refusing a second image (a coordinator serves one instance) and an
// image its chunk digests do not cover.
func stageFiles(files []dsmcc.File) (ctrlFile []byte, img *dsmcc.File, err error) {
	for i := range files {
		switch f := &files[i]; f.Name {
		case controller.PNAClassFile: // a node is its own agent
		case controller.ControlFile:
			ctrlFile = f.Data
		default:
			if img != nil {
				return nil, nil, fmt.Errorf("transport: a coordinator serves one instance, got images %s and %s", img.Name, f.Name)
			}
			img = f
		}
	}
	if img != nil && len(img.Chunks) != appimage.ChunkCount(len(img.Data)) {
		return nil, nil, fmt.Errorf("transport: image file %s comes with %d chunk digests for %d bytes", img.Name, len(img.Chunks), len(img.Data))
	}
	return ctrlFile, img, nil
}

// UpdateImage recomposes the instance with img (Controller.Recompose):
// the wakeup re-airs under the next sequence, the manifest re-encodes,
// and chunk frames re-encode only for changed content. Connected
// sessions are re-staged at their next heartbeat with just the chunks
// the new manifest lists and their previous one did not. An image no
// node would accept is refused before anything is journaled or aired.
func (c *Coordinator) UpdateImage(img *appimage.Image) error {
	if err := checkImageSize(img); err != nil {
		return err
	}
	return c.ctrl.Recompose(c.id, img)
}

// instrument registers coordinator and transport telemetry.
func (c *Coordinator) instrument(reg *obs.Registry) {
	c.met = coordMetrics{
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
	reg.GaugeFunc("oddci_transport_frame_pool_hits", "Frames read into a pooled buffer (process-wide)", func() float64 {
		h, _ := FramePoolStats()
		return float64(h)
	})
	reg.GaugeFunc("oddci_transport_frame_pool_misses", "Frames read into a buffer above the pool size cap (process-wide)", func() float64 {
		_, m := FramePoolStats()
		return float64(m)
	})
}

// Addr returns the bound address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// PublicKey returns the Controller key nodes should pin.
func (c *Coordinator) PublicKey() ed25519.PublicKey { return c.pub }

// Seq returns the wakeup sequence on the wire (bumped past the recorded
// one after a StateDir restart, and by each UpdateImage).
func (c *Coordinator) Seq() uint32 {
	st, _ := c.ctrl.Status(c.id)
	return st.Seq
}

// Recovered reports whether this coordinator resumed from a StateDir
// written by a previous run.
func (c *Coordinator) Recovered() bool { return c.ctrl.Recovered() }

// Controller exposes the instance's Controller: Status, Resize, and the
// heartbeats it consolidated.
func (c *Coordinator) Controller() *controller.Controller { return c.ctrl }

// NodeCount returns the number of distinct node IDs seen, in O(1).
func (c *Coordinator) NodeCount() int { return c.nodes.Len() }

// BroadcastEncodes counts the broadcast artifacts (banner, control
// file, manifest, chunks) encoded since construction — flat in the
// number of sessions by design.
func (c *Coordinator) BroadcastEncodes() int64 { return c.encodeOps.Load() }

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

// Close shuts the listener down and stops the Controller's timers before
// closing its journal; active sessions end when their nodes disconnect.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	if c.ln != nil {
		c.ln.Close()
	}
	if c.ctrl != nil {
		c.ctrl.Stop()
	}
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
	fr.Instrument(c.met.readLat, c.cfg.clock)

	flush := func() error {
		if bw.Buffered() == 0 {
			return nil
		}
		var t0 time.Time
		if c.met.writeLat != nil {
			t0 = c.cfg.clock.Now()
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if c.met.writeLat != nil {
			c.met.writeLat.ObserveDuration(c.cfg.clock.Now().Sub(t0))
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

	// Staged broadcast push: the control file, the manifest, and every
	// chunk the session does not hold — all of them at join, only the
	// new ones at a re-stage. The session holds exactly the chunks of
	// the last stage pushed (the node keeps the same set), so nothing
	// grows across updates and a push allocates nothing. The per-session
	// cost is a memcpy of immutable pre-encoded buffers.
	pushed := &imageStage{} // holds nothing: the join pushes every chunk
	pushStage := func(st *imageStage) (int, error) {
		wrote, frames := 0, int64(0)
		write := func(b []byte) error {
			_, err := bw.Write(b)
			wrote += len(b)
			return err
		}
		var err error
		for _, f := range [2][]byte{st.ctrlFrame, st.manifestFrame} {
			if err == nil && f != nil {
				err = write(f)
				frames++
			}
		}
		for _, d := range st.distinct {
			if err != nil {
				break
			}
			if _, held := pushed.chunks[d]; !held {
				hdr, data := st.chunk(d)
				if err = write(hdr); err == nil {
					err = write(data)
				}
				frames++
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
	// dispatch may overwrite it, token included; HandleResult keeps no
	// pointer to res. reset is set once the Controller has told this node
	// to leave: from then on its heartbeats are not consolidated again
	// and its requests get no task.
	var (
		reset bool
		wbuf  []byte
		hb    control.Heartbeat
		req   backend.TaskRequest
		res   backend.TaskResult
		asg   backend.TaskAssign
	)
	reply := func(resp any) error {
		switch m := resp.(type) {
		case *backend.TaskAssign:
			// The backend attaches a credential iff its mode issues them
			// and a dispatch context iff it has a collector; both ride
			// whenever present.
			wbuf = AppendTaskAssign(BeginFrame(wbuf[:0], FrameTaskAssign), m)
		case *backend.NoTask:
			wbuf = AppendNoTask(BeginFrame(wbuf[:0], FrameNoTask), m)
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
			if err := control.DecodeHeartbeatInto(payload, &hb); err != nil || reset {
				continue
			}
			// The Controller consolidates the report; a reply with no news
			// goes out as the pre-encoded frame.
			frame := c.hbReplyFrame
			if r := c.ctrl.HandleHeartbeat(&hb); r.Command != control.CmdNone || r.Period != 0 {
				if wbuf, err = AppendFrame(wbuf[:0], FrameHeartbeatReply, control.EncodeHeartbeatReply(r)); err != nil {
					return
				}
				frame, reset = wbuf, r.Command == control.CmdReset
			}
			if _, err := bw.Write(frame); err != nil {
				return
			}
			c.met.framesOut.Inc()
			c.met.bytesOut.Add(int64(len(frame)))
			// Heartbeats are the re-staging tick: a session whose stage is
			// stale gets the new control + manifest + only the chunks its
			// previous manifest did not list.
			if cur := c.stage.Load(); cur != pushed && !reset {
				wrote, err := pushStage(cur)
				if err != nil {
					return
				}
				c.met.restageBytes.Add(int64(wrote))
				c.met.restages.Inc()
			}
		case FrameTaskRequest:
			c.met.framesInTaskReq.Inc()
			if err := DecodeTaskRequest(payload, &req); err != nil || reset {
				continue
			}
			if err := reply(c.be.HandleRequestInto(&req, &asg)); err != nil {
				return
			}
		case FrameTaskResult:
			c.met.framesInTaskRes.Inc()
			if err := DecodeTaskResult(payload, &res); err != nil {
				continue
			}
			c.be.HandleResult(&res)
		default:
			// Unknown frames are ignored for forward compatibility.
			c.met.framesInOther.Inc()
		}
	}
}
