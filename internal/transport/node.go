package transport

import (
	"cmp"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/dve"
	"oddci/internal/core/instance"
	"oddci/internal/netsim"
	"oddci/internal/simtime"
	"oddci/internal/span"
	"oddci/internal/stb"
)

// NodeConfig parameterizes one node-agent process.
type NodeConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// NodeID identifies this device.
	NodeID uint64
	// Profile describes it (defaults to a reference STB).
	Profile instance.DeviceProfile
	// Mode selects in-use or standby.
	Mode stb.Mode
	// TimeScale divides task durations so demos finish quickly
	// (1 = faithful, 100 = 100× faster). Default 1.
	TimeScale float64
	// PinnedKey, if set, must match the coordinator's banner key
	// (otherwise trust-on-first-use).
	PinnedKey ed25519.PublicKey
	// Seed, with NodeID, seeds the one draw against the wakeup's
	// probability.
	Seed int64
	// Spans, if set, records this agent's join/image-load/execute spans
	// and stamps their contexts onto its requests and results. A nil
	// collector sends none; contexts the coordinator sends are accepted
	// either way.
	Spans *span.Collector

	// clock stamps outgoing heartbeats (default wall clock), so
	// transport timestamps agree with simtime-driven tests.
	clock simtime.Clock
}

// NodeReport summarizes one agent run.
type NodeReport struct {
	// Deployment is the name the coordinator's banner gave.
	Deployment string
	Joined     bool
	TasksDone  int
	Heartbeats int
	// Restages counts mid-session image updates this node assembled and
	// verified from pushed chunks.
	Restages int
	// Reset reports that the Controller told this node to leave (a trim
	// or a dismantled instance) and the node ended its session.
	Reset bool
}

// errReset ends a session whose heartbeat reply carried a reset.
var errReset = errors.New("transport: reset by the controller")

// imageAssembler folds the pushed broadcast — signed control file,
// manifest, chunks — into a verified image. The join loop and the
// worker's reply loop both feed it, so a first staging and a mid-session
// re-staging are one code path: a delta against whatever is held.
//
// The image is assembled in place and each byte is hashed once: each
// manifest gets one buffer of its size; a chunk is checked against its
// manifest digest when its frame arrives and copied once into every slot
// that digest fills; a chunk the previous buffer held is copied across
// unhashed, having been checked under the same digest. When the last
// missing chunk lands, the manifest's root is checked against the signed
// digest.
type imageAssembler struct {
	key    ed25519.PublicKey
	wakeup *control.Wakeup
	// name, size and digests are the last manifest received (empty
	// before the first) and buf its image. chains has one entry per
	// distinct digest it lists and nothing else, so what a node holds is
	// bounded by the manifest; next[i] is the next slot after i that the
	// same digest fills (0 ends a chain: no later slot is slot 0).
	// missing counts the digests whose bytes are not in buf yet.
	name    string
	size    int
	digests []appimage.Digest
	buf     []byte
	chains  map[appimage.Digest]chain
	next    []int
	missing int
	// hashed counts the chunk bytes hashed, for tests.
	hashed int
	// img is the last image verified, against digest. Its Payload
	// aliases that generation's buf, which is never written again.
	img    *appimage.Image
	digest appimage.Digest
}

// chain locates one distinct digest of the manifest: the first slot it
// fills, and whether its bytes are in the buffer yet.
type chain struct {
	first int
	held  bool
}

// feed consumes one frame of the broadcast (other frame types are
// ignored) and reports whether it completed a new verified image.
func (a *imageAssembler) feed(t FrameType, payload []byte) (staged bool, err error) {
	switch t {
	case FrameControl:
		msgs, err := control.OpenAll(payload, a.key)
		if err != nil {
			return false, fmt.Errorf("transport: control file rejected: %w", err)
		}
		var w *control.Wakeup
		for _, m := range msgs {
			if mw, ok := m.(*control.Wakeup); ok {
				w = mw
			}
		}
		if w == nil {
			return false, errors.New("transport: no wakeup on air")
		}
		// Adopt its digest; assembly waits for the manifest that
		// describes the new content.
		a.wakeup = w
		return false, nil
	case FrameImageManifest:
		name, size, ds, err := DecodeImageManifest(payload)
		if err != nil {
			return false, err
		}
		// A fresh buffer, never the previous one (the last verified image
		// aliases it). Chunks the new manifest still lists are copied
		// across from the previous buffer; the rest are dropped.
		prev := *a
		a.name, a.size, a.digests, a.buf, a.missing = name, size, ds, make([]byte, size), 0
		a.chains, a.next = make(map[appimage.Digest]chain, len(ds)), make([]int, len(ds))
		for i := len(ds) - 1; i >= 0; i-- { // backwards, so a chain runs in slot order
			c, dup := a.chains[ds[i]]
			if dup {
				a.next[i] = c.first
			} else {
				a.missing++
			}
			a.chains[ds[i]] = chain{first: i}
		}
		for d, c := range prev.chains {
			if _, listed := a.chains[d]; listed && c.held {
				lo, hi := prev.slot(c.first)
				if err := a.fill(d, prev.buf[lo:hi]); err != nil {
					return false, err
				}
			}
		}
	case FrameImageChunk:
		d, data, err := DecodeImageChunk(payload)
		if err != nil {
			return false, err
		}
		c, listed := a.chains[d]
		if !listed {
			return false, fmt.Errorf("transport: image chunk %x is not in the current manifest", d)
		}
		if lo, hi := a.slot(c.first); len(data) != hi-lo {
			return false, fmt.Errorf("transport: image chunk %x is %d bytes, its slot %d", d, len(data), hi-lo)
		}
		a.hashed += len(data)
		if sha256.Sum256(data) != d { // the one check binding these bytes to the signed root
			return false, fmt.Errorf("transport: image chunk does not hash to its digest %x", d)
		}
		if err := a.fill(d, data); err != nil { // payload is the reader's reused buffer
			return false, err
		}
	default:
		return false, nil
	}
	if a.missing > 0 || a.wakeup == nil || a.name != a.wakeup.ImageFile {
		return false, nil // incomplete, or nothing to assemble against yet
	}
	if a.img != nil && a.wakeup.ImageDigest == a.digest {
		return false, nil // no new image generation yet
	}
	if appimage.RootOf(a.size, a.digests) != a.wakeup.ImageDigest {
		return false, errors.New("transport: image rejected: manifest does not root to the signed digest")
	}
	img, err := appimage.Decode(a.buf)
	if err != nil {
		return false, fmt.Errorf("transport: image rejected: %w", err)
	}
	a.img, a.digest = img, a.wakeup.ImageDigest
	return true, nil
}

// slot is the byte range of chunk i in the image: appimage.ChunkBytes
// long, the last one shorter.
func (a *imageAssembler) slot(i int) (lo, hi int) {
	lo = i * appimage.ChunkBytes
	return lo, min(lo+appimage.ChunkBytes, a.size)
}

// fill copies a listed chunk into every slot its digest fills, the first
// time it is held; a repeat changes nothing. A chunk whose length is not
// its slot's is refused.
func (a *imageAssembler) fill(d appimage.Digest, data []byte) error {
	c := a.chains[d]
	if c.held {
		return nil
	}
	for i := c.first; ; {
		lo, hi := a.slot(i)
		if len(data) != hi-lo {
			return fmt.Errorf("transport: image chunk %x is %d bytes, its slot %d", d, len(data), hi-lo)
		}
		copy(a.buf[lo:hi], data)
		if i = a.next[i]; i == 0 {
			break
		}
	}
	a.chains[d] = chain{first: c.first, held: true}
	a.missing--
	return nil
}

// minHeartbeatPeriod floors the heartbeat period once TimeScale has
// divided it: a large enough scale would round it to zero, which
// time.NewTicker refuses.
const minHeartbeatPeriod = time.Millisecond

// wall is the clock a node runs tasks and back-offs on, whatever clock
// stamps its heartbeats: TimeScale divides wall time.
var wall = simtime.NewReal()

// RunNode connects, obeys the broadcast control plane, executes tasks
// until the Backend reports done, and returns.
func RunNode(cfg NodeConfig) (NodeReport, error) {
	conn, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return NodeReport{}, err
	}
	defer conn.Close()
	return runNode(cfg, conn)
}

// admissionDraw is a node's one draw in [0, 1) against a wakeup's
// probability, from a PCG seeded with (seed, node).
func admissionDraw(seed int64, node uint64) float64 {
	pcg := rand.NewPCG(uint64(seed), node)
	return float64(pcg.Uint64()<<11>>11) / (1 << 53)
}

// runNode is RunNode over an established connection, which it reads
// through one FrameReader. Every write on conn is whole frames, so one
// write is one syscall on the node's socket.
func runNode(cfg NodeConfig, conn net.Conn) (report NodeReport, err error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.Profile == (instance.DeviceProfile{}) {
		cfg.Profile = instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
	}
	if cfg.clock == nil {
		cfg.clock = wall
	}

	fr := NewFrameReader(conn)
	defer fr.Close()

	t, payload, err := fr.Next()
	if err != nil {
		return report, fmt.Errorf("transport: banner: %w", err)
	}
	if t != FrameBanner {
		return report, fmt.Errorf("transport: frame type %d, want %d", t, FrameBanner)
	}
	var banner Banner
	if err := json.Unmarshal(payload, &banner); err != nil {
		return report, fmt.Errorf("transport: banner: %w", err)
	}
	if banner.Wire != WireVersion {
		return report, fmt.Errorf("%w: coordinator says %d, this node %d", ErrWireVersion, banner.Wire, WireVersion)
	}
	report.Deployment = banner.Name
	key := ed25519.PublicKey(banner.ControllerKey)
	if cfg.PinnedKey != nil && !key.Equal(cfg.PinnedKey) {
		return report, errors.New("transport: coordinator key does not match pin")
	}
	ch := &taskChannel{asm: imageAssembler{key: key}, conn: conn, fr: fr, spans: cfg.Spans, scale: cfg.TimeScale, name: fmt.Sprintf("node-%d", cfg.NodeID), report: report}
	asm := &ch.asm
	// The join span parents under the coordinator's wakeup broadcast
	// (its context rides in the banner), covering control verification
	// through image acquisition. End is idempotent, so the deferred
	// call only stamps early exits.
	joinSp := cfg.Spans.Start(banner.Trace, "join", ch.name)
	defer joinSp.End()

	// A hello is a few bytes of JSON: neither its encoding nor its frame
	// can fail.
	hello, _ := json.Marshal(&Hello{Wire: WireVersion, NodeID: cfg.NodeID})
	ch.wbuf, _ = AppendFrame(ch.wbuf, FrameHello, hello)
	if err := ch.flush(); err != nil {
		return report, err
	}

	// Acquire the wakeup and its image from the pushed "broadcast": a
	// manifest plus digest-addressed chunks, assembled and verified
	// against the signed root.
	draw := admissionDraw(cfg.Seed, cfg.NodeID)
	for asm.img == nil {
		t, payload, err := fr.Next()
		if err != nil {
			return report, err
		}
		// Task frames cannot arrive before we ask for work; feed ignores
		// anything that is not part of the broadcast.
		if _, err := asm.feed(t, payload); err != nil {
			joinSp.SetError()
			return report, err
		}
		if w := asm.wakeup; t == FrameControl {
			if !w.Requirements.Match(cfg.Profile) || draw >= w.Probability {
				return report, nil // not eligible or drawn out; report.Joined stays false
			}
			// SetDetail's arguments are boxed before it sees a nil span:
			// an untraced node is spared the call.
			if joinSp != nil {
				joinSp.SetDetail("instance=%d seq=%d", w.InstanceID, w.Seq)
			}
		}
	}
	if imgSp := cfg.Spans.Start(joinSp.Context(), "image-load", ch.name); imgSp != nil {
		imgSp.SetDetail("bytes=%d chunks=%d file=%s", asm.size, len(asm.digests), asm.name)
		imgSp.End()
	}
	ch.report.Joined = true
	joinSp.End()

	// Heartbeat loop (busy state), beside the worker. Its instance and
	// cadence are the admitted wakeup's, fixed for the session: a re-stage
	// swaps the assembler's wakeup under the worker. The deferred stop
	// waits for the loop and folds its count into the report.
	inst, period := asm.wakeup.InstanceID, asm.wakeup.HeartbeatPeriod
	if period <= 0 {
		period = 10 * time.Second
	}
	period = max(time.Duration(float64(period)/cfg.TimeScale), minHeartbeatPeriod)
	stopHB, beats := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		defer func() { beats <- n }()
		tick := time.NewTicker(period)
		defer tick.Stop()
		// A beat encodes into one reused buffer: write has sent it
		// before it returns.
		hb := control.Heartbeat{NodeID: cfg.NodeID, State: control.StateBusy, InstanceID: inst, Profile: cfg.Profile}
		var buf []byte
		var err error
		for {
			select {
			case <-stopHB:
				return
			case <-tick.C:
				hb.SentAt = cfg.clock.Now()
				buf, err = EndFrame(control.AppendHeartbeat(BeginFrame(buf[:0], FrameHeartbeat), &hb), 0)
				if err != nil || ch.write(buf) != nil {
					return
				}
				n++
			}
		}
	}()
	defer func() {
		close(stopHB)
		report.Heartbeats = <-beats
	}()

	// The client module is the Backend's own worker, over the
	// connection. Task durations follow the device model over TimeScale.
	perf, mode, scale := stb.DefaultPerf(), cfg.Mode, ch.scale
	env := &ch.env
	env.Clk, env.NodeID, env.InstanceID, env.Image, env.Trace = wall, cfg.NodeID, inst, asm.img, joinSp.Context()
	env.TaskDuration = func(ref float64) time.Duration {
		return time.Duration(float64(perf.TaskDuration(ref, mode)) / scale)
	}
	env.Backend = ch
	err = backend.Worker(env)
	if ch.err == errReset {
		ch.report.Reset, ch.err = true, nil
	}
	return ch.report, cmp.Or(err, ch.err)
}

// taskChannel is the dve.Channel backend.Worker runs over on a TCP node:
// requests and results encode into wbuf, and replies decode into one
// reused TaskAssign or NoTask, which the worker is done with before it
// reads the next. A node stamps trace contexts iff it has a collector.
//
// Hand-off cadence: wbuf leaves in one write when the next read would
// block, the coordinator's flush rule, and before an assignment that
// takes device time is handed over, so results batched behind zero-time
// tasks do not wait for it. Heartbeat replies and re-staging frames
// interleave with task replies: Recv folds them in, and a reset ends the
// session.
type taskChannel struct {
	env    dve.Env
	asm    imageAssembler
	conn   net.Conn
	fr     *FrameReader
	spans  *span.Collector
	scale  float64    // the node's TimeScale
	name   string     // the node's, in its spans
	report NodeReport // the session's, but for its heartbeat count
	exe    *span.Span // the task handed over last, until its result is sent

	// wmu serialises the worker's and the heartbeat goroutine's writes.
	wmu    sync.Mutex
	wbuf   []byte
	assign backend.TaskAssign
	noTask backend.NoTask
	err    error // the first failure; the session ends with it
}

// write sends b, whole frames, in one write.
func (c *taskChannel) write(b []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := c.conn.Write(b)
	return err
}

// flush writes what wbuf holds, keeping the first failure.
func (c *taskChannel) flush() error {
	if len(c.wbuf) > 0 && c.err == nil {
		c.err = c.write(c.wbuf)
	}
	c.wbuf = c.wbuf[:0]
	return c.err
}

// Send encodes a request or a result into wbuf. A result ends its
// task's execute span and counts the task done.
func (c *taskChannel) Send(_ string, payload any, _ int) {
	start := len(c.wbuf)
	switch m := payload.(type) {
	case *backend.TaskRequest:
		c.wbuf = AppendTaskRequest(BeginFrame(c.wbuf, FrameTaskRequest), m)
	case *backend.TaskResult:
		c.exe.End()
		c.wbuf = AppendTaskResult(BeginFrame(c.wbuf, FrameTaskResult), m)
		c.report.TasksDone++
	}
	var err error
	c.wbuf, err = EndFrame(c.wbuf, start)
	c.err = cmp.Or(c.err, err)
}

// Recv returns the next task reply, folding in the frames that
// interleave with it. A NoTask's back-off is divided by TimeScale.
func (c *taskChannel) Recv() (netsim.Packet, error) {
	for c.err == nil {
		if c.fr.Buffered() == 0 && c.flush() != nil {
			break
		}
		t, payload, err := c.fr.Next()
		if err != nil {
			c.err = err
			break
		}
		switch t {
		case FrameHeartbeatReply:
			if r, err := control.DecodeHeartbeatReply(payload); err == nil && r.Command == control.CmdReset {
				c.err = errReset
			}
		case FrameControl, FrameImageManifest, FrameImageChunk:
			staged, err := c.asm.feed(t, payload)
			if staged {
				c.report.Restages++
			}
			c.err = err
		case FrameTaskAssign:
			if c.err = DecodeTaskAssign(payload, &c.assign); c.err != nil {
				break
			}
			// Results batched behind zero-time tasks leave before a task
			// that takes time starts, not after it ends.
			if c.env.Duration(c.assign.RefSeconds) > 0 && c.flush() != nil {
				break
			}
			c.startExecute()
			return netsim.Packet{Payload: &c.assign}, nil
		case FrameNoTask:
			if c.err = DecodeNoTask(payload, &c.noTask); c.err == nil {
				c.noTask.RetryAfter = time.Duration(float64(c.noTask.RetryAfter) / c.scale)
				return netsim.Packet{Payload: &c.noTask}, nil
			}
		default:
			c.err = fmt.Errorf("transport: unexpected frame %d awaiting task reply", t)
		}
	}
	return netsim.Packet{}, c.err
}

// startExecute opens the execute span of the assignment just decoded,
// under the dispatch that assigned it, or under the join when an
// untraced coordinator sent no context. An untraced node drops the
// dispatch context, so its result carries none.
func (c *taskChannel) startExecute() {
	if c.spans == nil {
		c.assign.Trace = span.Context{}
		return
	}
	parent := c.assign.Trace
	if !parent.Valid() {
		parent = c.env.Trace
	}
	if c.exe = c.spans.Start(parent, "execute", c.name); c.exe != nil {
		c.exe.SetDetail("job=%d task=%d", c.assign.JobID, c.assign.TaskID)
	}
}

// Close is part of dve.Channel; the session closes the connection once
// the worker returns.
func (c *taskChannel) Close() {}
