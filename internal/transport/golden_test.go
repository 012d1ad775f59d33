package transport

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/span"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_frames.txt from this build's encoders")

const goldenFrames = "testdata/golden_frames.txt"

// goldenFrameCases is one of each task-plane and image-plane frame the
// wire carries, whole (header and payload), with and without the
// optional credential and trace context.
func goldenFrameCases() []struct {
	name  string
	frame []byte
} {
	cred := make([]byte, backend.CredentialLen)
	for i := range cred {
		cred[i] = byte(i)
	}
	ctx := span.Context{Trace: span.TraceID{0x0123456789ABCDEF, 0xFEDCBA9876543210}, Span: 0x42, Sampled: true}
	frame := func(t FrameType, payload []byte) []byte {
		f, err := AppendFrame(nil, t, payload)
		if err != nil {
			panic(err)
		}
		return f
	}
	type c = struct {
		name  string
		frame []byte
	}
	var cases []c
	for _, tr := range []struct {
		name string
		ctx  span.Context
	}{{"", span.Context{}}, {"_trace", ctx}} {
		cases = append(cases, c{"request" + tr.name, frame(FrameTaskRequest,
			AppendTaskRequest(nil, &backend.TaskRequest{NodeID: 7, Trace: tr.ctx}))})
		for _, cr := range []struct {
			name string
			cred []byte
		}{{"", nil}, {"_cred", cred}} {
			cases = append(cases, c{"assign" + cr.name + tr.name, frame(FrameTaskAssign,
				AppendTaskAssign(nil, &backend.TaskAssign{JobID: 3, TaskID: 1 << 40, RefSeconds: 2.5, OutputSize: 64,
					Payload: []byte("task input"), Credential: cr.cred, Trace: tr.ctx}))})
			cases = append(cases, c{"result" + cr.name + tr.name, frame(FrameTaskResult,
				AppendTaskResult(nil, &backend.TaskResult{NodeID: 7, JobID: 3, TaskID: 1 << 40,
					Payload: []byte("task output"), Credential: cr.cred, Trace: tr.ctx}))})
		}
	}
	cases = append(cases,
		c{"notask_retry", frame(FrameNoTask, AppendNoTask(nil, &backend.NoTask{RetryAfter: 1500 * time.Millisecond}))},
		c{"notask_done", frame(FrameNoTask, AppendNoTask(nil, &backend.NoTask{Done: true}))},
		c{"manifest_dup_chunk", frame(FrameImageManifest, AppendImageManifest(nil, "image.1", 2*appimage.ChunkBytes+5,
			[]appimage.Digest{sha256.Sum256([]byte("a")), sha256.Sum256([]byte("b")), sha256.Sum256([]byte("a"))}))},
		c{"chunk", frame(FrameImageChunk, AppendImageChunk(nil, sha256.Sum256([]byte("chunk")), []byte("chunk")))},
	)
	return cases
}

// reencodeFrame decodes a whole frame with the decoder its type selects
// and encodes the result again.
func reencodeFrame(t *testing.T, b []byte) []byte {
	t.Helper()
	typ, payload, err := readFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	switch typ {
	case FrameTaskRequest:
		var m backend.TaskRequest
		err = DecodeTaskRequest(payload, &m)
		out = AppendTaskRequest(nil, &m)
	case FrameTaskAssign:
		var m backend.TaskAssign
		err = DecodeTaskAssign(payload, &m)
		out = AppendTaskAssign(nil, &m)
	case FrameNoTask:
		var m backend.NoTask
		err = DecodeNoTask(payload, &m)
		out = AppendNoTask(nil, &m)
	case FrameTaskResult:
		var m backend.TaskResult
		err = DecodeTaskResult(payload, &m)
		out = AppendTaskResult(nil, &m)
	case FrameImageManifest:
		var name string
		var size int
		var ds []appimage.Digest
		name, size, ds, err = DecodeImageManifest(payload)
		out = AppendImageManifest(nil, name, size, ds)
	case FrameImageChunk:
		var d appimage.Digest
		var data []byte
		d, data, err = DecodeImageChunk(payload)
		out = AppendImageChunk(nil, d, data)
	default:
		t.Fatalf("frame type %d has no golden decoder", typ)
	}
	if err != nil {
		t.Fatal(err)
	}
	f, err := AppendFrame(nil, typ, out)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// readGolden parses a golden file of "name hex" lines.
func readGolden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		if golden[name], err = hex.DecodeString(h); err != nil {
			t.Fatalf("%s: %s: %v", path, name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestGoldenFrames pins every task-plane and image-plane frame to the
// bytes recorded in testdata/golden_frames.txt: each message encodes to
// them, and they decode and re-encode to themselves. A layout change
// fails it; one a peer of the other layout would misread also bumps
// WireVersion.
func TestGoldenFrames(t *testing.T) {
	cases := goldenFrameCases()
	if *updateGolden {
		var b strings.Builder
		for _, c := range cases {
			b.WriteString(c.name + " " + hex.EncodeToString(c.frame) + "\n")
		}
		if err := os.WriteFile(goldenFrames, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t, goldenFrames)
	if len(golden) != len(cases) {
		t.Fatalf("%s holds %d frames, want %d", goldenFrames, len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no %s", goldenFrames, c.name)
		}
		if !bytes.Equal(c.frame, want) {
			t.Errorf("%s encodes to\n%x\nwant\n%x", c.name, c.frame, want)
		}
		if re := reencodeFrame(t, want); !bytes.Equal(re, want) {
			t.Errorf("%s re-encodes to\n%x\nwant\n%x", c.name, re, want)
		}
	}
}
