package transport

import (
	"bufio"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/core/instance"
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
	// Perf is the device performance model.
	Perf stb.PerfModel
	// Mode selects in-use or standby.
	Mode stb.Mode
	// TimeScale divides task durations so demos finish quickly
	// (1 = faithful, 100 = 100× faster). Default 1.
	TimeScale float64
	// PinnedKey, if set, must match the coordinator's banner key
	// (otherwise trust-on-first-use).
	PinnedKey ed25519.PublicKey
	// Clock stamps outgoing heartbeats (default wall clock), so
	// transport timestamps agree with simtime-driven tests.
	Clock simtime.Clock
	// Seed drives the probability draw.
	Seed int64
	// Spans, if set, records this agent's join/image-load/execute spans
	// and stamps their contexts onto its requests and results. A nil
	// collector sends none; contexts the coordinator sends are accepted
	// either way.
	Spans *span.Collector
}

// NodeReport summarizes one agent run.
type NodeReport struct {
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
// manifest gets one buffer of its Size; a chunk is checked against its
// manifest digest when its frame arrives and copied once into every slot
// that digest fills; a chunk the previous buffer held is copied across
// unhashed, having been checked under the same digest. When the last
// missing chunk lands, the manifest's root is checked against the signed
// digest.
type imageAssembler struct {
	key    ed25519.PublicKey
	wakeup *control.Wakeup
	// manifest is the last one received (nil before the first) and buf
	// its image. chains has one entry per distinct digest it lists and
	// nothing else, so what a node holds is bounded by the manifest;
	// next[i] is the next slot after i that the same digest fills (0
	// ends a chain: no later slot is slot 0). missing counts the digests
	// whose bytes are not in buf yet.
	manifest *ImageManifest
	buf      []byte
	chains   map[appimage.Digest]chain
	next     []int
	missing  int
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
		var m ImageManifest
		if err := DecodeImageManifest(payload, &m); err != nil {
			return false, err
		}
		// A fresh buffer, never the previous one (the last verified image
		// aliases it). Chunks the new manifest still lists are copied
		// across from the previous buffer; the rest are dropped.
		prev := *a
		a.manifest, a.buf, a.missing = &m, make([]byte, m.Size), 0
		a.chains, a.next = make(map[appimage.Digest]chain, len(m.Digests)), make([]int, len(m.Digests))
		for i := len(m.Digests) - 1; i >= 0; i-- { // backwards, so a chain runs in slot order
			c, dup := a.chains[m.Digests[i]]
			if dup {
				a.next[i] = c.first
			} else {
				a.missing++
			}
			a.chains[m.Digests[i]] = chain{first: i}
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
	if a.missing > 0 || a.wakeup == nil || a.manifest.Name != a.wakeup.ImageFile {
		return false, nil // incomplete, or nothing to assemble against yet
	}
	if a.img != nil && a.wakeup.ImageDigest == a.digest {
		return false, nil // no new image generation yet
	}
	if appimage.RootOf(a.manifest.Size, a.manifest.Digests) != a.wakeup.ImageDigest {
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
	return lo, min(lo+appimage.ChunkBytes, a.manifest.Size)
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

// runNode is RunNode over an established connection, which it reads
// through one FrameReader and writes through one bufio.Writer: a Write on
// conn is a write syscall on the node's socket.
func runNode(cfg NodeConfig, conn net.Conn) (report NodeReport, err error) {
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.Perf.SlowdownVsPC == 0 {
		cfg.Perf = stb.DefaultPerf()
	}
	if cfg.Profile == (instance.DeviceProfile{}) {
		cfg.Profile = instance.DeviceProfile{Class: instance.ClassSTB, MemMB: 256, CPUScore: 100}
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.NewReal()
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.NodeID)))

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
	key := ed25519.PublicKey(banner.ControllerKey)
	if cfg.PinnedKey != nil && !key.Equal(cfg.PinnedKey) {
		return report, errors.New("transport: coordinator key does not match pin")
	}
	nodeName := fmt.Sprintf("node-%d", cfg.NodeID)
	// The join span parents under the coordinator's wakeup broadcast
	// (its context rides in the banner), covering control verification
	// through image acquisition. End is idempotent, so the deferred
	// call only stamps early exits.
	joinSp := cfg.Spans.Start(banner.Trace, "join", nodeName)
	joinSp.SetDetail("instance=1")
	defer joinSp.End()

	// The heartbeat goroutine and the worker loop interleave writes on
	// the one connection, so sends serialize on wmu; the bufio writer
	// turns each send, of one frame or several, into a single contiguous
	// syscall at flush.
	var wmu sync.Mutex
	bw := bufio.NewWriterSize(conn, 4<<10)
	send := func(t FrameType, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if err := WriteFrame(bw, t, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	sendRaw := func(frame []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		return bw.Flush()
	}
	hello, err := json.Marshal(&Hello{
		Wire: WireVersion, NodeID: cfg.NodeID, Class: uint8(cfg.Profile.Class),
		MemMB: cfg.Profile.MemMB, CPUScore: cfg.Profile.CPUScore,
	})
	if err != nil {
		return report, err
	}
	if err := send(FrameHello, hello); err != nil {
		return report, err
	}

	// Acquire the wakeup and its image from the pushed "broadcast": a
	// manifest plus digest-addressed chunks, assembled and verified
	// against the signed root.
	asm := &imageAssembler{key: key}
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
		if t == FrameControl {
			if !asm.wakeup.Requirements.Match(cfg.Profile) {
				return report, nil // not eligible; report.Joined stays false
			}
			if rng.Float64() >= asm.wakeup.Probability {
				return report, nil // probability gate dropped us
			}
		}
	}
	// SetDetail's variadic arguments are boxed before it can see a nil
	// span, so an untraced node is spared the call, not just its body.
	if imgSp := cfg.Spans.Start(joinSp.Context(), "image-load", nodeName); imgSp != nil {
		imgSp.SetDetail("bytes=%d chunks=%d file=%s", asm.manifest.Size, len(asm.manifest.Digests), asm.manifest.Name)
		imgSp.End()
	}
	report.Joined = true
	joinCtx := joinSp.Context()
	joinSp.End()

	// Heartbeat loop (busy state). The counter is atomic because the
	// loop runs concurrently with the worker below; the deferred wait
	// folds the final count into the named return.
	var hbCount atomic.Int64
	stopHB := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	// Snapshot the session constants: a mid-flight re-stage swaps the
	// assembler's wakeup under the worker loop, but the instance identity
	// and heartbeat cadence are fixed for the connection's lifetime.
	hbInstance := asm.wakeup.InstanceID
	hbPeriod := asm.wakeup.HeartbeatPeriod
	go func() {
		defer hbWG.Done()
		period := hbPeriod
		if period <= 0 {
			period = 10 * time.Second
		}
		period = max(time.Duration(float64(period)/cfg.TimeScale), minHeartbeatPeriod)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-tick.C:
				hb := &control.Heartbeat{
					NodeID: cfg.NodeID, State: control.StateBusy,
					InstanceID: hbInstance, Profile: cfg.Profile,
					SentAt: cfg.Clock.Now(),
				}
				if err := send(FrameHeartbeat, control.EncodeHeartbeat(hb)); err != nil {
					return
				}
				hbCount.Add(1)
			}
		}
	}()
	defer func() {
		close(stopHB)
		hbWG.Wait()
		report.Heartbeats = int(hbCount.Load())
	}()

	// Worker loop: pull → execute (scaled by the device model) → push.
	// Heartbeat replies interleave with task replies on the same
	// connection, so reads skip them unless one is a reset, which ends
	// the session. Re-staging frames (a fresh signed
	// control, manifest, and only the chunks not held) also interleave
	// here; the assembler folds them in and re-verifies the image when
	// the set completes.
	//
	// Hand-off cadence: results and requests collect in wbuf and leave in
	// one write when the next read would block, the coordinator's flush
	// rule, so it reads them at once and answers them with one write of
	// its own. The flush sits before every read of the loop, not only
	// before the first: a heartbeat reply read ahead of a task reply must
	// not hold a result back.
	var wbuf []byte
	flush := func() error {
		if len(wbuf) == 0 {
			return nil
		}
		err := sendRaw(wbuf)
		wbuf = wbuf[:0]
		return err
	}
	readTaskReply := func() (FrameType, []byte, error) {
		for {
			if fr.Buffered() == 0 {
				if err := flush(); err != nil {
					return 0, nil, err
				}
			}
			t, payload, err := fr.Next()
			if err != nil {
				return 0, nil, err
			}
			switch t {
			case FrameHeartbeatReply:
				if r, err := control.DecodeHeartbeatReply(payload); err == nil && r.Command == control.CmdReset {
					return 0, nil, errReset
				}
			case FrameControl, FrameImageManifest, FrameImageChunk:
				staged, err := asm.feed(t, payload)
				if err != nil {
					return 0, nil, err
				}
				if staged {
					report.Restages++
				}
			default:
				return t, payload, nil
			}
		}
	}
	// The request frame is identical every round: build it once (the
	// join context is constant after joining, so it stays immutable).
	// Result frames build into wbuf. A node stamps contexts iff it has a
	// collector; joinCtx is zero without one.
	reqFrame := BeginFrame(nil, FrameTaskRequest)
	reqFrame = AppendTaskRequest(reqFrame, &TaskRequestMsg{NodeID: cfg.NodeID, Trace: joinCtx})
	if reqFrame, err = EndFrame(reqFrame, 0); err != nil {
		return report, err
	}
	// The node keeps window requests unanswered; inflight counts them.
	// After a task that takes no device time the window is
	// backend.LeaseSlack, so the node asks for its next tasks before it is
	// answered; after any other task it is 1, and a request rides with
	// each result. A NoTask closes the window to one: when the last reply
	// is in, the back-off sends a lone request.
	window, inflight := 1, 0
	request := func() {
		for ; inflight < window; inflight++ {
			wbuf = append(wbuf, reqFrame...)
		}
	}
	var (
		assign TaskAssignMsg
		noTask NoTaskMsg
	)
	request()
	for {
		t, payload, err := readTaskReply()
		if err == errReset {
			report.Reset = true
			return report, nil
		}
		if err != nil {
			return report, err
		}
		switch t {
		case FrameTaskAssign:
			inflight--
			if err := DecodeTaskAssign(payload, &assign); err != nil {
				return report, err
			}
			// Results batched behind zero-length tasks leave before a task
			// that takes time starts, not after it ends.
			d := time.Duration(float64(cfg.Perf.TaskDuration(assign.RefSeconds, cfg.Mode)) / cfg.TimeScale)
			if d > 0 {
				if err := flush(); err != nil {
					return report, err
				}
			}
			// The execute span parents under the dispatch that assigned
			// the task; an untraced coordinator sends no context, so the
			// fallback keeps execution visible in the node's own trace.
			exeParent := assign.Trace
			if !exeParent.Valid() {
				exeParent = joinCtx
			}
			exeSp := cfg.Spans.Start(exeParent, "execute", nodeName)
			if exeSp != nil {
				exeSp.SetDetail("job=%d task=%d", assign.JobID, assign.TaskID)
			}
			time.Sleep(d)
			exeSp.End()
			// The credential is an opaque echo of whatever was given; the
			// backend verifies.
			res := TaskResultMsg{NodeID: cfg.NodeID, JobID: assign.JobID, TaskID: assign.TaskID, Cred: assign.Cred}
			if cfg.Spans != nil {
				// Results parent under the dispatch context so the
				// backend's commit span closes the same subtree.
				res.Trace = exeParent
			}
			start := len(wbuf)
			wbuf = AppendTaskResult(BeginFrame(wbuf, FrameTaskResult), &res)
			if wbuf, err = EndFrame(wbuf, start); err != nil {
				return report, err
			}
			report.TasksDone++
			window = 1
			if d == 0 {
				window = backend.LeaseSlack
			}
			request()
		case FrameNoTask:
			inflight--
			if err := DecodeNoTask(payload, &noTask); err != nil {
				return report, err
			}
			if noTask.Done {
				return report, nil
			}
			window = 1
			if inflight == 0 {
				time.Sleep(time.Duration(float64(noTask.RetryAfter()) / cfg.TimeScale))
				request()
			}
		default:
			return report, fmt.Errorf("transport: unexpected frame %d awaiting task reply", t)
		}
	}
}
