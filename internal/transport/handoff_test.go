package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/span"
)

// writeLog is the node's connection with every Write recorded as the
// frame types it carried: runNode flushes its bufio.Writer once per send,
// so one entry is one write syscall on a real socket. The node already
// serialises its writers.
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
// frame by the test. The first failure sticks and turns the rest of the
// script into no-ops.
type scriptedPeer struct {
	conn net.Conn
	fr   *FrameReader
	err  error
}

func (p *scriptedPeer) send(frames ...[]byte) {
	for _, f := range frames {
		if p.err == nil {
			_, p.err = p.conn.Write(f)
		}
	}
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
		}
	}
}

func assignFrame(task int) []byte {
	f, _ := AppendFrame(nil, FrameTaskAssign, AppendTaskAssign(nil, &TaskAssignMsg{JobID: 1, TaskID: task, Payload: []byte("in")}))
	return f
}

func noTaskFrame(m NoTaskMsg) []byte {
	f, _ := AppendFrame(nil, FrameNoTask, AppendNoTask(nil, &m))
	return f
}

// missingChunks lists the chunk frames of st that prev does not hold.
func missingChunks(st, prev *imageStage) [][]byte {
	var out [][]byte
	for _, d := range st.distinct {
		if _, held := prev.chunkFrames[d]; !held {
			out = append(out, st.chunkFrames[d])
		}
	}
	return out
}

// runScripted joins a node to coord's broadcast of st over a pipe, then
// hands the peer end to script. It returns the node's report and what it
// wrote after the hello.
func runScripted(t *testing.T, coord *Coordinator, st *imageStage, script func(p *scriptedPeer)) (NodeReport, [][]FrameType) {
	t.Helper()
	nodeEnd, peerEnd := net.Pipe()
	defer nodeEnd.Close()
	defer peerEnd.Close()
	deadline := time.Now().Add(10 * time.Second)
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

// TestHandoffCadence pins what the node writes together: a completed
// task is one write holding the result and then the next request, and a
// request travels alone only first and after a back-off.
func TestHandoffCadence(t *testing.T) {
	coord := stagedCoordinator(t)
	report, writes := runScripted(t, coord, coord.stage.Load(), func(p *scriptedPeer) {
		p.expect(FrameTaskRequest)
		p.send(assignFrame(0))
		p.expect(FrameTaskResult, FrameTaskRequest)
		p.send(noTaskFrame(NoTaskMsg{RetryAfterMS: 1}))
		p.expect(FrameTaskRequest)
		p.send(assignFrame(1))
		p.expect(FrameTaskResult, FrameTaskRequest)
		p.send(noTaskFrame(NoTaskMsg{Done: true}))
	})
	want := [][]FrameType{
		{FrameTaskRequest},
		{FrameTaskResult, FrameTaskRequest},
		{FrameTaskRequest},
		{FrameTaskResult, FrameTaskRequest},
	}
	if !slices.EqualFunc(writes, want, slices.Equal[[]FrameType]) {
		t.Fatalf("node writes = %v, want %v", writes, want)
	}
	if report.TasksDone != 2 || !report.Joined {
		t.Fatalf("report = %+v, want 2 tasks done", report)
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
	if len(delta) == 0 || len(delta) == len(second.chunkFrames) {
		t.Fatalf("update changed %d of %d chunks, want some and not all", len(delta), len(second.chunkFrames))
	}

	report, writes := runScripted(t, coord, first, func(p *scriptedPeer) {
		p.expect(FrameTaskRequest)
		p.send(assignFrame(0))
		p.expect(FrameTaskResult, FrameTaskRequest)
		p.send(coord.hbReplyFrame, second.ctrlFrame, second.manifestFrame)
		p.send(delta...)
		p.send(assignFrame(1))
		p.expect(FrameTaskResult, FrameTaskRequest)
		p.send(noTaskFrame(NoTaskMsg{Done: true}))
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
	cred := make([]byte, credentialLen)
	payload := make([]byte, 512)
	asgRaw := AppendTaskAssign(nil, &TaskAssignMsg{JobID: 1, TaskID: 2, Payload: payload, Cred: cred})
	resRaw := AppendTaskResult(nil, &TaskResultMsg{NodeID: 7, JobID: 1, TaskID: 2, Payload: payload, Cred: cred})
	bareRaw := AppendTaskResult(nil, &TaskResultMsg{NodeID: 7, JobID: 1, TaskID: 2, Cred: cred})

	var asg TaskAssignMsg
	var res TaskResultMsg
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
	if len(asg.Payload) != len(payload) || len(asg.Cred) != credentialLen || len(res.Cred) != credentialLen || res.Payload != nil {
		t.Fatalf("decoded lengths: assign payload %d cred %d, result payload %d cred %d",
			len(asg.Payload), len(asg.Cred), len(res.Payload), len(res.Cred))
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
// carrying spans, and reports what one hand-off — the assignment read,
// then its result and the next request in one write, the cadence runNode
// ships — allocates across the whole process, both ends included.
func handoffAllocs(t *testing.T, spans *span.Collector) float64 {
	t.Helper()
	const runs = 300
	coord := serveCoordinator(t, CoordinatorConfig{Image: testImage(), Spans: spans})
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
	reqFrame, _ := AppendFrame(nil, FrameTaskRequest, AppendTaskRequest(nil, &TaskRequestMsg{NodeID: 1}))
	if _, err := p.conn.Write(reqFrame); err != nil {
		t.Fatal(err)
	}
	var wbuf []byte
	var assign TaskAssignMsg
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
			wbuf = AppendTaskResult(wbuf, &TaskResultMsg{NodeID: 1, JobID: assign.JobID, TaskID: assign.TaskID})
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
	return testing.AllocsPerRun(runs, handoff)
}

// TestSampledOffTracingAllocatesNothing: a coordinator whose collector
// loses every head-based draw pays for tracing in nil checks alone, so a
// hand-off against it allocates no more than one with no collector.
func TestSampledOffTracingAllocatesNothing(t *testing.T) {
	untraced := handoffAllocs(t, nil)
	off := handoffAllocs(t, span.NewCollector(span.Config{Capacity: 4096, SampleRate: -1}))
	if off > untraced {
		t.Fatalf("sampled-off hand-off allocates %.0f times, untraced %.0f", off, untraced)
	}
}

// repeatReader yields frame forever, one whole copy per Read.
type repeatReader []byte

func (r repeatReader) Read(p []byte) (int, error) { return copy(p, r), nil }
