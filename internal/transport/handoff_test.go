package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/control"
	"oddci/internal/core/backend"
	"oddci/internal/obs"
	"oddci/internal/span"
	"oddci/internal/workload"
)

// writeLog is the node's connection with every Write recorded as the
// frame types it carried: the node writes whole frames in one Write per
// flush, so one entry is one write syscall on a real socket. The node
// already serialises its writers.
type writeLog struct {
	net.Conn
	writes [][]FrameType
}

func (w *writeLog) Write(p []byte) (int, error) {
	var types []FrameType
	for b := p; len(b) > 0; {
		if len(b) < 5 || len(b)-5 < int(binary.BigEndian.Uint32(b[1:])) {
			return 0, fmt.Errorf("write of %d bytes splits a frame", len(p))
		}
		types = append(types, FrameType(b[0]))
		b = b[5+binary.BigEndian.Uint32(b[1:]):]
	}
	w.writes = append(w.writes, types)
	return w.Conn.Write(p)
}

// scriptedPeer is the coordinator's end of a net.Pipe, driven frame by
// frame by the test. Each send is one write, made in the background as a
// socket's send buffer would take it, so the script can read what the
// node writes meanwhile. The first failure sticks and turns the rest of
// the script into no-ops.
type scriptedPeer struct {
	conn    net.Conn
	fr      *FrameReader
	err     error
	writing chan error
	// unanswered counts the task requests read and not yet answered by an
	// assign or a no-task; most is its peak.
	unanswered, most int
}

// send writes frames as one write, once the previous send has landed.
func (p *scriptedPeer) send(frames ...[]byte) {
	p.wait()
	if p.err != nil {
		return
	}
	var b []byte
	for _, f := range frames {
		if t := FrameType(f[0]); t == FrameTaskAssign || t == FrameNoTask {
			p.unanswered--
		}
		b = append(b, f...)
	}
	done := make(chan error, 1)
	p.writing = done
	go func() {
		_, err := p.conn.Write(b)
		done <- err
	}()
}

// wait blocks until the last send has landed.
func (p *scriptedPeer) wait() {
	if p.writing == nil {
		return
	}
	if err := <-p.writing; err != nil && p.err == nil {
		p.err = err
	}
	p.writing = nil
}

// expect reads one frame per type, in order.
func (p *scriptedPeer) expect(types ...FrameType) {
	for _, want := range types {
		if p.err != nil {
			return
		}
		got, _, err := p.fr.Next()
		if err != nil {
			p.err = fmt.Errorf("awaiting frame %d: %w", want, err)
		} else if got != want {
			p.err = fmt.Errorf("frame %d, want %d", got, want)
		} else if got == FrameTaskRequest {
			p.unanswered++
			p.most = max(p.most, p.unanswered)
		}
	}
}

// assignFrame hands over task, refSeconds long on the reference device:
// at the node's TimeScale of 1, that is how long it sleeps.
func assignFrame(task int, refSeconds float64) []byte {
	f, _ := AppendFrame(nil, FrameTaskAssign, AppendTaskAssign(nil, &backend.TaskAssign{
		JobID: 1, TaskID: task, RefSeconds: refSeconds, Payload: []byte("in")}))
	return f
}

// longTask outlasts a round trip over a pipe many times over.
const longTask = 0.05

func noTaskFrame(m backend.NoTask) []byte {
	f, _ := AppendFrame(nil, FrameNoTask, AppendNoTask(nil, &m))
	return f
}

// missingChunks lists the chunk frames of st that prev does not hold.
func missingChunks(st, prev *imageStage) [][]byte {
	var out [][]byte
	for _, d := range st.distinct {
		if _, held := prev.chunks[d]; !held {
			hdr, data := st.chunk(d)
			out = append(out, slices.Concat(hdr, data))
		}
	}
	return out
}

// runScripted joins a node to coord's broadcast of st over a pipe, then
// hands the peer end to script; both ends give up after timeout. It
// returns the node's report and what it wrote after the hello.
func runScripted(t *testing.T, coord *Coordinator, st *imageStage, timeout time.Duration, script func(p *scriptedPeer)) (NodeReport, [][]FrameType) {
	t.Helper()
	nodeEnd, peerEnd := net.Pipe()
	defer nodeEnd.Close()
	defer peerEnd.Close()
	deadline := time.Now().Add(timeout)
	nodeEnd.SetDeadline(deadline)
	peerEnd.SetDeadline(deadline)

	peerErr := make(chan error, 1)
	go func() {
		p := &scriptedPeer{conn: peerEnd, fr: NewFrameReader(peerEnd)}
		defer p.fr.Close()
		p.send(coord.bannerFrame)
		p.expect(FrameHello)
		p.send(st.ctrlFrame, st.manifestFrame)
		p.send(missingChunks(st, &imageStage{})...)
		script(p)
		p.wait()
		peerErr <- p.err
	}()

	wl := &writeLog{Conn: nodeEnd}
	report, err := runNode(NodeConfig{NodeID: 7, PinnedKey: coord.PublicKey()}, wl)
	if perr := <-peerErr; perr != nil {
		t.Fatalf("scripted coordinator: %v (node: %v)", perr, err)
	}
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	if len(wl.writes) == 0 || !slices.Equal(wl.writes[0], []FrameType{FrameHello}) {
		t.Fatalf("writes = %v, want the hello first and alone", wl.writes)
	}
	return report, wl.writes[1:]
}

func stagedCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{Listen: "127.0.0.1:0", Image: chunkedImage(t, 5, 4*appimage.ChunkBytes)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestHandoffCadence is the spec of the node's request window: what it
// writes together, and how many requests it leaves unanswered.
func TestHandoffCadence(t *testing.T) {
	const (
		req = FrameTaskRequest
		res = FrameTaskResult
	)
	backOff := noTaskFrame(backend.NoTask{RetryAfter: time.Millisecond})
	for _, c := range []struct {
		name   string
		script func(p *scriptedPeer)
		tasks  int
		want   [][]FrameType
	}{{
		// A task that takes time keeps one request in flight: a completed
		// task is one write holding its result and the next request, and a
		// request travels alone only first and after a back-off.
		name: "tasks that take time",
		script: func(p *scriptedPeer) {
			p.expect(req)
			p.send(assignFrame(0, longTask))
			p.expect(res, req)
			p.send(backOff)
			p.expect(req)
			p.send(assignFrame(1, longTask))
			p.expect(res, req)
			p.send(noTaskFrame(backend.NoTask{Done: true}))
		},
		tasks: 2,
		want:  [][]FrameType{{req}, {res, req}, {req}, {res, req}},
	}, {
		// Zero-length tasks open the window to LeaseSlack: the node asks
		// for the next tasks before it is answered, and its results and
		// top-up requests leave together once the replies buffered so far
		// are used up. A back-off closes the window: once the last
		// outstanding reply is in, one request follows.
		name: "zero-length tasks",
		script: func(p *scriptedPeer) {
			p.expect(req)
			p.send(assignFrame(0, 0))
			p.expect(res, req, req, req, req)
			p.send(assignFrame(1, 0), assignFrame(2, 0), assignFrame(3, 0), backOff)
			p.expect(res, req, res, req, res, req)
			p.send(backOff, backOff, backOff)
			p.expect(req)
			p.send(noTaskFrame(backend.NoTask{Done: true}))
		},
		tasks: 4,
		want:  [][]FrameType{{req}, {res, req, req, req, req}, {res, req, res, req, res, req}, {req}},
	}, {
		// Tasks that take time behind a zero-length one: the node holds
		// the LeaseSlack assigns it asked for, but each result leaves
		// before the next task runs, and it asks again only when it
		// holds none.
		name: "tasks that take time after a zero-length one",
		script: func(p *scriptedPeer) {
			p.expect(req)
			p.send(assignFrame(0, 0))
			p.expect(res, req, req, req, req)
			p.send(assignFrame(1, longTask), assignFrame(2, longTask), assignFrame(3, longTask), assignFrame(4, longTask))
			p.expect(res, res, res, res, req)
			p.send(noTaskFrame(backend.NoTask{Done: true}))
		},
		tasks: 5,
		want:  [][]FrameType{{req}, {res, req, req, req, req}, {res}, {res}, {res}, {res, req}},
	}} {
		t.Run(c.name, func(t *testing.T) {
			coord := stagedCoordinator(t)
			most := 0
			report, writes := runScripted(t, coord, coord.stage.Load(), 10*time.Second, func(p *scriptedPeer) {
				c.script(p)
				most = p.most
			})
			if !slices.EqualFunc(writes, c.want, slices.Equal[[]FrameType]) {
				t.Fatalf("node writes = %v, want %v", writes, c.want)
			}
			if most > backend.LeaseSlack {
				t.Fatalf("node left %d requests unanswered, at most %d allowed", most, backend.LeaseSlack)
			}
			if report.TasksDone != c.tasks || !report.Joined {
				t.Fatalf("report = %+v, want %d tasks done", report, c.tasks)
			}
		})
	}
}

// TestHandoffFlushesBeforeEveryRead: a result waits for the replies
// already read to be used up, not for the next task reply. A heartbeat
// reply, or a whole re-stage, arriving in one write with the assignment
// must not hold the result back: the node flushes before its next read
// would block, wherever in the reply loop that read is.
func TestHandoffFlushesBeforeEveryRead(t *testing.T) {
	coord := stagedCoordinator(t)
	first := coord.stage.Load()
	next := chunkedImage(t, 5, 4*appimage.ChunkBytes)
	next.Version = 2
	flipInChunk(next, 2)
	if err := coord.UpdateImage(next); err != nil {
		t.Fatal(err)
	}
	second := coord.stage.Load()
	restage := append([][]byte{coord.hbReplyFrame, second.ctrlFrame, second.manifestFrame}, missingChunks(second, first)...)
	for _, c := range []struct {
		name     string
		after    [][]byte
		restages int
	}{
		{"heartbeat reply", [][]byte{coord.hbReplyFrame}, 0},
		{"re-stage", restage, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			report, _ := runScripted(t, coord, first, 2*time.Second, func(p *scriptedPeer) {
				p.expect(FrameTaskRequest)
				p.send(append([][]byte{assignFrame(0, longTask)}, c.after...)...)
				p.expect(FrameTaskResult, FrameTaskRequest) // nothing more is sent until the result is in
				p.send(noTaskFrame(backend.NoTask{Done: true}))
			})
			if report.TasksDone != 1 || report.Restages != c.restages {
				t.Fatalf("report = %+v, want 1 task done and %d re-stages", report, c.restages)
			}
		})
	}
}

// TestNoHoardingOverLoopback: a node running tasks that take time asks
// for one at a time. Two nodes on a two-task job whose tasks far outlast
// the loopback round trip take one task each, even when the second dials
// after the first holds its task; a node that asked for LeaseSlack tasks
// up front would take both.
func TestNoHoardingOverLoopback(t *testing.T) {
	reg := obs.NewRegistry()
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage(), retryAfter: 10 * time.Millisecond, Obs: reg})
	job := &workload.Job{Name: "hoard", Tasks: []workload.Task{{ID: 0, STBSeconds: 0.3}, {ID: 1, STBSeconds: 0.3}}}
	h, err := coord.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	var (
		reports [2]NodeReport
		errs    [2]error
		wg      sync.WaitGroup
	)
	run := func(n int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[n], errs[n] = RunNode(NodeConfig{Addr: coord.Addr(), NodeID: uint64(n + 1), PinnedKey: coord.PublicKey()})
		}()
	}
	run(0)
	waitFor(t, "the first node's assignment", func() bool { return reg.Counter("oddci_backend_tasks_dispatched_total", "").Value() > 0 })
	run(1)
	wg.Wait()
	for n := range reports {
		if errs[n] != nil {
			t.Fatalf("node %d: %v", n+1, errs[n])
		}
		if reports[n].TasksDone != 1 {
			t.Fatalf("node %d did %d tasks, want 1 each (reports %+v)", n+1, reports[n].TasksDone, reports)
		}
	}
	if _, done := h.Done(); !done {
		t.Fatal("job incomplete")
	}
}

// TestHandoffFoldsInterleavedFrames: a heartbeat reply and a whole
// re-stage arriving between the coalesced write and the assignment it
// asked for are consumed on the way to that assignment.
func TestHandoffFoldsInterleavedFrames(t *testing.T) {
	coord := stagedCoordinator(t)
	first := coord.stage.Load()
	next := chunkedImage(t, 5, 4*appimage.ChunkBytes)
	next.Version = 2
	flipInChunk(next, 2)
	if err := coord.UpdateImage(next); err != nil {
		t.Fatal(err)
	}
	second := coord.stage.Load()
	delta := missingChunks(second, first)
	if len(delta) == 0 || len(delta) == len(second.chunks) {
		t.Fatalf("update changed %d of %d chunks, want some and not all", len(delta), len(second.chunks))
	}

	report, writes := runScripted(t, coord, first, 10*time.Second, func(p *scriptedPeer) {
		p.expect(FrameTaskRequest)
		p.send(assignFrame(0, longTask))
		p.expect(FrameTaskResult, FrameTaskRequest)
		p.send(coord.hbReplyFrame, second.ctrlFrame, second.manifestFrame)
		p.send(delta...)
		p.send(assignFrame(1, longTask))
		p.expect(FrameTaskResult, FrameTaskRequest)
		p.send(noTaskFrame(backend.NoTask{Done: true}))
	})
	if report.Restages != 1 || report.TasksDone != 2 {
		t.Fatalf("report = %+v, want 1 re-stage folded in and 2 tasks done", report)
	}
	if len(writes) != 3 {
		t.Fatalf("node writes = %v, want one request and two result+request pairs", writes)
	}
}

// TestTaskDecodeAllocCeilings: decoding into a reused message costs the
// collector nothing for an assignment and exactly the kept payload copy
// for a result; reading the frame costs nothing either.
func TestTaskDecodeAllocCeilings(t *testing.T) {
	cred := make([]byte, backend.CredentialLen)
	payload := make([]byte, 512)
	asgRaw := AppendTaskAssign(nil, &backend.TaskAssign{JobID: 1, TaskID: 2, Payload: payload, Credential: cred})
	resRaw := AppendTaskResult(nil, &backend.TaskResult{NodeID: 7, JobID: 1, TaskID: 2, Payload: payload, Credential: cred})
	bareRaw := AppendTaskResult(nil, &backend.TaskResult{NodeID: 7, JobID: 1, TaskID: 2, Credential: cred})

	var asg backend.TaskAssign
	var res backend.TaskResult
	for _, c := range []struct {
		name    string
		ceiling float64
		decode  func() error
	}{
		{"assign with payload and credential", 0, func() error { return DecodeTaskAssign(asgRaw, &asg) }},
		{"result with payload and credential", 1, func() error { return DecodeTaskResult(resRaw, &res) }},
		{"result with credential only", 0, func() error { return DecodeTaskResult(bareRaw, &res) }},
	} {
		if got := testing.AllocsPerRun(100, func() {
			if err := c.decode(); err != nil {
				t.Fatal(err)
			}
		}); got > c.ceiling {
			t.Errorf("decoding a %s into a reused message allocates %.0f times, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
	if len(asg.Payload) != len(payload) || len(asg.Credential) != backend.CredentialLen || len(res.Credential) != backend.CredentialLen || res.Payload != nil {
		t.Fatalf("decoded lengths: assign payload %d cred %d, result payload %d cred %d",
			len(asg.Payload), len(asg.Credential), len(res.Payload), len(res.Credential))
	}

	// A stream that never ends: the same result frame over and over.
	frame, _ := AppendFrame(nil, FrameTaskResult, resRaw)
	fr := NewFrameReader(repeatReader(frame))
	defer fr.Close()
	if got := testing.AllocsPerRun(100, func() {
		if typ, p, err := fr.Next(); err != nil || typ != FrameTaskResult || len(p) != len(resRaw) {
			t.Fatalf("Next = %d, %d bytes, %v", typ, len(p), err)
		}
	}); got != 0 {
		t.Errorf("FrameReader.Next allocates %.0f times per frame", got)
	}
}

// handoffAllocs serves one wire-level client from a loopback coordinator
// carrying spans and issuing credentials per mode, and reports what one
// hand-off — the assignment read, then its result (echoing the
// credential) and the next request in one write, runNode's cadence for
// a task that outlasts the round trip — allocates across the whole
// process, both ends included.
func handoffAllocs(t *testing.T, spans *span.Collector, mode backend.CredentialMode) float64 {
	t.Helper()
	const runs = 300
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage(), Spans: spans, CredentialMode: mode})
	// One warm-up hand-off here, one inside AllocsPerRun, and the last
	// request still draws an assignment.
	if _, err := coord.Submit(testJob(t, runs+3)); err != nil {
		t.Fatal(err)
	}
	p, err := dialRaw(coord.Addr(), Hello{Wire: WireVersion, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.conn.SetDeadline(time.Now().Add(30 * time.Second))
	reqFrame, _ := AppendFrame(nil, FrameTaskRequest, AppendTaskRequest(nil, &backend.TaskRequest{NodeID: 1}))
	if _, err := p.conn.Write(reqFrame); err != nil {
		t.Fatal(err)
	}
	var wbuf []byte
	var assign backend.TaskAssign
	handoff := func() {
		typ, payload, err := p.fr.Next()
		for err == nil && typ != FrameTaskAssign { // the staged broadcast, ahead of the first reply
			typ, payload, err = p.fr.Next()
		}
		if err == nil {
			err = DecodeTaskAssign(payload, &assign)
		}
		if err == nil {
			wbuf = BeginFrame(wbuf[:0], FrameTaskResult)
			wbuf = AppendTaskResult(wbuf, &backend.TaskResult{NodeID: 1, JobID: assign.JobID, TaskID: assign.TaskID, Credential: assign.Credential})
			wbuf, err = EndFrame(wbuf, 0)
		}
		if err == nil {
			wbuf = append(wbuf, reqFrame...)
			_, err = p.conn.Write(wbuf)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	handoff()
	allocs := testing.AllocsPerRun(runs, handoff)
	if mode != backend.CredOff && len(assign.Credential) != backend.CredentialLen {
		t.Fatalf("assignment carried a %d-byte credential", len(assign.Credential))
	}
	if got := atomic.LoadInt64(&coord.be.Completed); got < runs {
		t.Fatalf("%d of %d hand-offs committed", got, runs)
	}
	return allocs
}

// TestSampledOffTracingAllocatesNothing: a coordinator whose collector
// loses every head-based draw pays for tracing in nil checks alone, so a
// hand-off against it allocates no more than one with no collector.
func TestSampledOffTracingAllocatesNothing(t *testing.T) {
	untraced := handoffAllocs(t, nil, backend.CredOff)
	off := handoffAllocs(t, span.NewCollector(span.Config{Capacity: 4096, SampleRate: -1}), backend.CredOff)
	if off > untraced {
		t.Fatalf("sampled-off hand-off allocates %.0f times, untraced %.0f", off, untraced)
	}
}

// TestLoopbackHandoffAllocatesNothing: a whole hand-off over loopback —
// both ends' codecs, the backend's dispatch into the session's reused
// assignment, the credential's issue and verify, and the commit —
// allocates nothing anywhere in the process.
func TestLoopbackHandoffAllocatesNothing(t *testing.T) {
	for _, mode := range []backend.CredentialMode{backend.CredOff, backend.CredEnforce} {
		if got := handoffAllocs(t, nil, mode); got != 0 {
			t.Errorf("credential mode %d: a loopback hand-off allocates %.0f times", mode, got)
		}
	}
}

// TestLoopbackHeartbeatAllocatesNothing: a whole heartbeat over loopback
// — the node's append-encode into its reused buffer, the session's decode
// into its reused report, the Controller's consolidation, the
// pre-encoded reply and the node's decode of it by value — allocates
// nothing anywhere in the process, so what a session allocates does not
// grow with how long it lasts.
func TestLoopbackHeartbeatAllocatesNothing(t *testing.T) {
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage()})
	p, err := dialRaw(coord.Addr(), Hello{Wire: WireVersion, NodeID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.conn.SetDeadline(time.Now().Add(30 * time.Second))
	hb := control.Heartbeat{NodeID: 1, State: control.StateBusy, InstanceID: coord.id}
	var wbuf []byte
	beat := func() {
		hb.SentAt = time.Now()
		wbuf = BeginFrame(wbuf[:0], FrameHeartbeat)
		wbuf = control.AppendHeartbeat(wbuf, &hb)
		wbuf, err = EndFrame(wbuf, 0)
		if err == nil {
			_, err = p.conn.Write(wbuf)
		}
		var typ FrameType
		var payload []byte
		for err == nil && typ != FrameHeartbeatReply { // the staged broadcast, ahead of the first reply
			typ, payload, err = p.fr.Next()
		}
		var r control.HeartbeatReply
		if err == nil {
			r, err = control.DecodeHeartbeatReply(payload)
		}
		if err != nil || r.Command != control.CmdNone {
			t.Fatalf("heartbeat reply %+v, %v", r, err)
		}
	}
	beat()
	if got := testing.AllocsPerRun(300, beat); got != 0 {
		t.Errorf("a loopback heartbeat allocates %.0f times", got)
	}
}

// repeatReader yields frame forever, one whole copy per Read.
type repeatReader []byte

func (r repeatReader) Read(p []byte) (int, error) { return copy(p, r), nil }
