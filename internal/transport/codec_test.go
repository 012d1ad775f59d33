package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/span"
)

// has reports membership.
func (s *nodeSet) has(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[id]
	return ok
}

func TestTaskPlaneCodecRoundTrip(t *testing.T) {
	reqs := []backend.TaskRequest{{}, {NodeID: 1}, {NodeID: ^uint64(0)}}
	for _, in := range reqs {
		var out backend.TaskRequest
		if err := DecodeTaskRequest(AppendTaskRequest(nil, &in), &out); err != nil {
			t.Fatalf("request %+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("request round trip: %+v != %+v", out, in)
		}
	}
	// InputSize is netsim's pacing size and stays off the wire: a decoded
	// assignment's is len(Payload).
	assigns := []backend.TaskAssign{
		{},
		{JobID: 3, TaskID: 77, RefSeconds: 2.5, OutputSize: 64},
		{JobID: -1, TaskID: -9, RefSeconds: 0.001, InputSize: 2, OutputSize: 1 << 30, Payload: []byte("in")},
	}
	for _, in := range assigns {
		raw := AppendTaskAssign(nil, &in)
		var out backend.TaskAssign
		if err := DecodeTaskAssign(raw, &out); err != nil {
			t.Fatalf("assign %+v: %v", in, err)
		}
		if out.JobID != in.JobID || out.TaskID != in.TaskID ||
			out.RefSeconds != in.RefSeconds || out.OutputSize != in.OutputSize ||
			out.InputSize != len(in.Payload) || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("assign round trip: %+v != %+v", out, in)
		}
		// The decoded payload must not alias the wire buffer (frame
		// buffers are reused).
		if len(raw) > 37 {
			raw[len(raw)-1] ^= 0xFF
			if bytes.Equal(out.Payload, raw[37:]) {
				t.Fatal("decoded payload aliases the frame buffer")
			}
		}
	}
	noTasks := []backend.NoTask{{}, {RetryAfter: 1500 * time.Millisecond}, {Done: true}, {RetryAfter: -time.Millisecond, Done: true}}
	for _, in := range noTasks {
		var out backend.NoTask
		if err := DecodeNoTask(AppendNoTask(nil, &in), &out); err != nil {
			t.Fatalf("no-task %+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("no-task round trip: %+v != %+v", out, in)
		}
	}
	results := []backend.TaskResult{
		{},
		{NodeID: 8, JobID: 1, TaskID: 2, Payload: []byte("out")},
	}
	for _, in := range results {
		var out backend.TaskResult
		if err := DecodeTaskResult(AppendTaskResult(nil, &in), &out); err != nil {
			t.Fatalf("result %+v: %v", in, err)
		}
		if out.NodeID != in.NodeID || out.JobID != in.JobID ||
			out.TaskID != in.TaskID || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("result round trip: %+v != %+v", out, in)
		}
	}
}

func TestTaskPlaneCodecRejectsMalformed(t *testing.T) {
	good := AppendTaskAssign(nil, &backend.TaskAssign{JobID: 1, Payload: []byte("abc")})
	cases := [][]byte{
		nil,
		{1, 2, 3},
		good[:len(good)-1],                    // truncated payload
		append(good[:len(good):len(good)], 0), // trailing byte
	}
	for i, b := range cases {
		var a backend.TaskAssign
		if err := DecodeTaskAssign(b, &a); err == nil {
			t.Errorf("case %d: malformed assign accepted", i)
		}
		var r backend.TaskResult
		if err := DecodeTaskResult(b, &r); err == nil && len(b) >= 29 {
			t.Errorf("case %d: malformed result accepted", i)
		}
	}
	var req backend.TaskRequest
	if err := DecodeTaskRequest(make([]byte, 8), &req); err == nil {
		t.Error("request without a flags byte accepted")
	}
	if err := DecodeTaskRequest(make([]byte, 10), &req); err == nil {
		t.Error("long request accepted")
	}
	var nt backend.NoTask
	if err := DecodeNoTask(make([]byte, 8), &nt); err == nil {
		t.Error("short no-task accepted")
	}
	if err := DecodeNoTask([]byte{0, 0, 0, 0, 0, 0, 0, 0, 7}, &nt); err == nil {
		t.Error("no-task with junk done byte accepted")
	}
	// A back-off no time.Duration holds would not re-encode to its bytes.
	for _, ms := range []int64{math.MaxInt64/int64(time.Millisecond) + 1, math.MinInt64} {
		if err := DecodeNoTask(append(binary.BigEndian.AppendUint64(nil, uint64(ms)), 0), &nt); err == nil {
			t.Errorf("no-task backing off %d ms accepted", ms)
		}
	}
}

// Property: the binary codec is canonical — decode(encode(m)) == m for
// arbitrary messages, and every accepted input re-encodes bit-exactly.
func TestTaskAssignCodecProperty(t *testing.T) {
	f := func(job, task int32, ref float64, outSize int32, payload []byte) bool {
		in := backend.TaskAssign{JobID: int(job), TaskID: int(task),
			RefSeconds: ref, OutputSize: int(outSize), Payload: payload}
		raw := AppendTaskAssign(nil, &in)
		var out backend.TaskAssign
		if err := DecodeTaskAssign(raw, &out); err != nil {
			return false
		}
		return out.InputSize == len(payload) && bytes.Equal(AppendTaskAssign(nil, &out), raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBeginEndFrame(t *testing.T) {
	b := BeginFrame(nil, FrameTaskRequest)
	b = AppendTaskRequest(b, &backend.TaskRequest{NodeID: 42})
	b, err := EndFrame(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bytes.NewReader(b))
	if err != nil || typ != FrameTaskRequest {
		t.Fatalf("typ=%d err=%v", typ, err)
	}
	var req backend.TaskRequest
	if err := DecodeTaskRequest(payload, &req); err != nil || req.NodeID != 42 {
		t.Fatalf("req=%+v err=%v", req, err)
	}
	// AppendFrame produces identical bytes.
	alt, err := AppendFrame(nil, FrameTaskRequest, payload)
	if err != nil || !bytes.Equal(alt, b) {
		t.Fatalf("AppendFrame mismatch: %x vs %x (err=%v)", alt, b, err)
	}
	if _, err := EndFrame([]byte{1}, 0); err == nil {
		t.Fatal("EndFrame on a headerless buffer accepted")
	}
}

// FrameReader must agree with readFrame on any frame sequence while
// reusing one pooled payload buffer.
func TestFrameReaderSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	type frame struct {
		t FrameType
		p []byte
	}
	var frames []frame
	for i := 0; i < 50; i++ {
		p := make([]byte, rng.Intn(3000))
		rng.Read(p)
		fr := frame{FrameType(rng.Intn(14) + 1), p}
		frames = append(frames, fr)
		if err := writeFrame(&buf, fr.t, fr.p); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf)
	defer fr.Close()
	for i, want := range frames {
		typ, p, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != want.t || !bytes.Equal(p, want.p) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, _, err := fr.Next(); err == nil {
		t.Fatal("Next past the end succeeded")
	}
}

// Oversized frames (beyond the pool cap) must still read correctly via
// a one-shot buffer, and count as pool misses once the reader closes.
func TestFrameReaderOversizedPayload(t *testing.T) {
	big := make([]byte, poolBufCap+poolBufCap/2)
	rand.New(rand.NewSource(3)).Read(big)
	var buf bytes.Buffer
	if err := writeFrame(&buf, FrameImageChunk, big); err != nil {
		t.Fatal(err)
	}
	writeFrame(&buf, FrameHello, []byte("after"))
	_, m0 := FramePoolStats()
	fr := NewFrameReader(&buf)
	defer fr.Close()
	typ, p, err := fr.Next()
	if err != nil || typ != FrameImageChunk || !bytes.Equal(p, big) {
		t.Fatalf("typ=%d err=%v equal=%v", typ, err, bytes.Equal(p, big))
	}
	typ, p, err = fr.Next()
	if err != nil || typ != FrameHello || string(p) != "after" {
		t.Fatalf("frame after oversized payload: typ=%d p=%q err=%v", typ, p, err)
	}
	// Sessions of earlier tests may still be closing, so the process-wide
	// totals are only known to have grown.
	h0, _ := FramePoolStats()
	if fr.hits != 1 || fr.misses != 1 {
		t.Fatalf("reader counted %d hits and %d misses, want 1 and 1", fr.hits, fr.misses)
	}
	fr.Close()
	if h1, m1 := FramePoolStats(); m1 == m0 || h1 == h0 {
		t.Fatalf("closing the reader moved misses %d->%d, hits %d->%d", m0, m1, h0, h1)
	}
	// The oversized reader must still reject frames above MaxFrame.
	var huge bytes.Buffer
	huge.Write([]byte{byte(FrameImageChunk), 0xFF, 0xFF, 0xFF, 0xFF})
	fr2 := NewFrameReader(&huge)
	defer fr2.Close()
	if _, _, err := fr2.Next(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestNodeSet(t *testing.T) {
	s := nodeSet{m: make(map[uint64]struct{})}
	for i := uint64(0); i < 1000; i++ {
		s.Add(i)
		s.Add(i) // a reconnecting node counts once
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	if !s.has(999) || s.has(1000) {
		t.Fatal("membership wrong")
	}
}

// BenchmarkTaskCodec: one assign through the codec, for
// `go test -bench TaskCodec`.
func BenchmarkTaskCodec(b *testing.B) {
	assign := backend.TaskAssign{JobID: 1, TaskID: 12345, RefSeconds: 2, OutputSize: 64}
	var buf []byte
	var out backend.TaskAssign
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendTaskAssign(buf[:0], &assign)
		if err := DecodeTaskAssign(buf, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTaskPlaneCodecFlags: every optional-field combination a shape may
// carry round-trips and re-encodes bit-exactly; a reused decode target
// is zeroed by a bare message; and the flags byte is checked against
// the tail in both directions.
func TestTaskPlaneCodecFlags(t *testing.T) {
	ctx := span.Context{Trace: span.TraceID{0xDEADBEEF, 0xCAFED00D}, Span: 0x1234, Sampled: true}
	cred := bytes.Repeat([]byte{0xAB}, backend.CredentialLen)

	for _, trace := range []span.Context{{}, ctx} {
		req := backend.TaskRequest{NodeID: 7, Trace: trace}
		raw := AppendTaskRequest(nil, &req)
		out := backend.TaskRequest{Trace: span.Context{Span: 99}} // stale reused target
		if err := DecodeTaskRequest(raw, &out); err != nil || out != req {
			t.Fatalf("request trace=%v round trip: %+v err=%v", trace.Valid(), out, err)
		}
		for _, c := range [][]byte{nil, cred} {
			assign := backend.TaskAssign{JobID: 2, TaskID: 5, RefSeconds: 1.5, OutputSize: 64,
				Payload: []byte("in"), Credential: c, Trace: trace}
			rawA := AppendTaskAssign(nil, &assign)
			outA := backend.TaskAssign{Credential: []byte("stale"), Trace: span.Context{Span: 99}}
			if err := DecodeTaskAssign(rawA, &outA); err != nil {
				t.Fatal(err)
			}
			if outA.Trace != trace || !bytes.Equal(outA.Credential, c) || !bytes.Equal(AppendTaskAssign(nil, &outA), rawA) {
				t.Fatalf("assign cred=%t trace=%t not canonical: %+v", c != nil, trace.Valid(), outA)
			}
			res := backend.TaskResult{NodeID: 7, JobID: 2, TaskID: 5, Payload: []byte("out"), Credential: c, Trace: trace}
			rawR := AppendTaskResult(nil, &res)
			outR := backend.TaskResult{Credential: []byte("stale"), Trace: span.Context{Span: 99}}
			if err := DecodeTaskResult(rawR, &outR); err != nil {
				t.Fatal(err)
			}
			if outR.Trace != trace || !bytes.Equal(outR.Credential, c) || !bytes.Equal(AppendTaskResult(nil, &outR), rawR) {
				t.Fatalf("result cred=%t trace=%t not canonical: %+v", c != nil, trace.Valid(), outR)
			}
		}
	}

	// flagsAt is where each shape keeps its flags byte.
	reqRaw := AppendTaskRequest(nil, &backend.TaskRequest{NodeID: 7, Trace: ctx})
	asgRaw := AppendTaskAssign(nil, &backend.TaskAssign{Payload: []byte("in"), Credential: cred, Trace: ctx})
	resRaw := AppendTaskResult(nil, &backend.TaskResult{Payload: []byte("out"), Credential: cred, Trace: ctx})
	shapes := []struct {
		name    string
		raw     []byte
		flagsAt int
		decode  func([]byte) error
	}{
		{"request", reqRaw, 8, func(b []byte) error { return DecodeTaskRequest(b, new(backend.TaskRequest)) }},
		{"assign", asgRaw, 32, func(b []byte) error { return DecodeTaskAssign(b, new(backend.TaskAssign)) }},
		{"result", resRaw, 24, func(b []byte) error { return DecodeTaskResult(b, new(backend.TaskResult)) }},
	}
	for _, sh := range shapes {
		mutate := func(what string, f func(b []byte) []byte) {
			if sh.decode(f(append([]byte(nil), sh.raw...))) == nil {
				t.Errorf("%s with %s accepted", sh.name, what)
			}
		}
		mutate("an unknown flag bit", func(b []byte) []byte { b[sh.flagsAt] |= 0x80; return b })
		mutate("a trace bit and no trace", func(b []byte) []byte { return b[:len(b)-span.EncodedLen] })
		mutate("a trace and no trace bit", func(b []byte) []byte { b[sh.flagsAt] &^= extTrace; return b })
		mutate("junk trace flags", func(b []byte) []byte { b[len(b)-1] = 0xFF; return b })
		mutate("a trace bit over the zero context", func(b []byte) []byte {
			clear(b[len(b)-span.EncodedLen:])
			return b
		})
	}
	// A request may not carry a credential, whatever its tail holds.
	credReq := append(binary.BigEndian.AppendUint64(nil, 7), extCred)
	if DecodeTaskRequest(append(credReq, cred...), new(backend.TaskRequest)) == nil {
		t.Error("request with a credential accepted")
	}
}

func TestImagePlaneCodec(t *testing.T) {
	const cb = appimage.ChunkBytes
	ones := appimage.Digest(bytes.Repeat([]byte{0xFF}, len(appimage.Digest{})))
	digests := []appimage.Digest{{1}, ones, {3}}
	raw := AppendImageManifest(nil, "image.1", 2*cb+1, digests)
	name, size, ds, err := DecodeImageManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if name != "image.1" || size != 2*cb+1 ||
		!slices.Equal(ds, digests) || !bytes.Equal(AppendImageManifest(nil, name, size, ds), raw) {
		t.Fatalf("manifest round trip: %q %d %x", name, size, ds)
	}
	bad := map[string]struct {
		size int
		ds   []appimage.Digest
	}{
		"size 0":              {0, nil},
		"size > maxImageSize": {maxImageSize + 1, make([]appimage.Digest, maxImageSize/cb+1)},
		"a digest short":      {2*cb + 1, []appimage.Digest{{1}, {2}}},
		"a digest over":       {2 * cb, []appimage.Digest{{1}, {2}, {3}}},
	}
	for what, m := range bad {
		if _, _, _, err := DecodeImageManifest(AppendImageManifest(nil, "x", m.size, m.ds)); err == nil {
			t.Errorf("manifest with %s accepted", what)
		}
	}
	for _, b := range [][]byte{nil, {0}, raw[:5], raw[:len(raw)-1], append(raw[:len(raw):len(raw)], 0)} {
		if _, _, _, err := DecodeImageManifest(b); err == nil {
			t.Errorf("malformed manifest %x accepted", b)
		}
	}

	chunk := AppendImageChunk(nil, ones, []byte("data"))
	d, data, err := DecodeImageChunk(chunk)
	if err != nil || d != ones || string(data) != "data" || !bytes.Equal(AppendImageChunk(nil, d, data), chunk) {
		t.Fatalf("chunk round trip: d=%x data=%q err=%v", d, data, err)
	}
	for _, b := range [][]byte{nil, chunk[:len(d)-1], chunk[:len(d)]} {
		if _, _, err := DecodeImageChunk(b); err == nil {
			t.Errorf("chunk of %d bytes accepted", len(b))
		}
	}
}
