package transport

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"oddci/internal/appimage"
	"oddci/internal/span"
)

// FuzzReadFrame hammers the frame parsers with arbitrary bytes:
// readFrame and FrameReader.Next must never panic, must agree with
// each other, and anything accepted must re-encode through WriteFrame
// to the identical byte prefix.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	WriteFrame(&seed, FrameHello, []byte(`{"node_id":1}`))
	f.Add(append([]byte(nil), seed.Bytes()...))
	seed.Reset()
	WriteFrame(&seed, FrameHeartbeat, []byte("beat"))
	f.Add(append([]byte(nil), seed.Bytes()...))
	f.Add([]byte{})
	f.Add([]byte{byte(FrameControl), 0, 0, 0, 0})
	f.Add([]byte{byte(FrameImageChunk), 0xFF, 0xFF, 0xFF, 0xFF}) // over MaxFrame
	f.Add([]byte{byte(FrameTaskAssign), 0, 0, 0, 9, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		fr := NewFrameReader(bytes.NewReader(data))
		defer fr.Close()
		typ2, payload2, err2 := fr.Next()
		if (err == nil) != (err2 == nil) {
			t.Fatalf("readFrame err=%v but FrameReader err=%v", err, err2)
		}
		if err != nil {
			return
		}
		if typ != typ2 || !bytes.Equal(payload, payload2) {
			t.Fatal("readFrame and FrameReader disagree on an accepted frame")
		}
		var re bytes.Buffer
		if err := WriteFrame(&re, typ, payload); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data[:5+len(payload)]) {
			t.Fatal("re-encoded frame differs from the accepted input")
		}
	})
}

// FuzzTaskPlaneCodec drives all four binary task-plane decoders with
// arbitrary payloads (the first byte selects the message type). None
// may panic, and any accepted payload must be canonical: re-encoding
// the decoded message reproduces the input bit-exactly.
func FuzzTaskPlaneCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte{2}, AppendNoTask(nil, &NoTaskMsg{RetryAfterMS: 1500})...))
	f.Add(append([]byte{2}, AppendNoTask(nil, &NoTaskMsg{Done: true})...))
	// Every flag class per shape: bare, cred, trace, cred+trace. A
	// request may carry only the trace, so its cred classes are seeds
	// the decoder must reject.
	cred := bytes.Repeat([]byte{0xAB}, credentialLen)
	ctx := span.Context{Trace: span.TraceID{0xDEAD, 0xBEEF}, Span: 0x77, Sampled: true}
	for _, trace := range []span.Context{{}, ctx} {
		req := AppendTaskRequest(nil, &TaskRequestMsg{NodeID: 7, Trace: trace})
		f.Add(append([]byte{0}, req...))
		req[8] |= extCred
		f.Add(append(append([]byte{0}, req...), cred...))
		for _, c := range [][]byte{nil, cred} {
			f.Add(append([]byte{1}, AppendTaskAssign(nil, &TaskAssignMsg{
				JobID: 1, TaskID: 2, RefSeconds: 2.5, OutputSize: 64, Payload: []byte("in"), Cred: c, Trace: trace})...))
			f.Add(append([]byte{3}, AppendTaskResult(nil, &TaskResultMsg{
				NodeID: 9, JobID: 1, TaskID: 2, Payload: []byte("out"), Cred: c, Trace: trace})...))
		}
	}
	f.Add([]byte{1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, body := data[0], data[1:]
		switch sel % 4 {
		case 0:
			var m TaskRequestMsg
			if DecodeTaskRequest(body, &m) == nil {
				if !bytes.Equal(AppendTaskRequest(nil, &m), body) {
					t.Fatal("non-canonical task request accepted")
				}
			}
		case 1:
			var m TaskAssignMsg
			if DecodeTaskAssign(body, &m) == nil {
				if !bytes.Equal(AppendTaskAssign(nil, &m), body) {
					t.Fatal("non-canonical task assign accepted")
				}
			}
		case 2:
			var m NoTaskMsg
			if DecodeNoTask(body, &m) == nil {
				if !bytes.Equal(AppendNoTask(nil, &m), body) {
					t.Fatal("non-canonical no-task accepted")
				}
			}
		case 3:
			var m TaskResultMsg
			if DecodeTaskResult(body, &m) == nil {
				if !bytes.Equal(AppendTaskResult(nil, &m), body) {
					t.Fatal("non-canonical task result accepted")
				}
			}
		}
	})
}

// FuzzImagePlaneCodec drives the manifest and chunk decoders with
// arbitrary payloads (the first byte selects which). Neither may panic
// or allocate past what the payload's own length pays for, and any
// accepted payload must be canonical.
func FuzzImagePlaneCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte{0}, AppendImageManifest(nil, &ImageManifest{
		Name: "image.1", Size: appimage.ChunkBytes + 1, Digests: []appimage.Digest{{1}, {2}}})...))
	f.Add(append([]byte{0}, AppendImageManifest(nil, &ImageManifest{
		Name: "image.1", Size: 0xFFFFFFFF})...)) // the "size: -1" manifest
	f.Add(append([]byte{0}, AppendImageManifest(nil, &ImageManifest{
		Name: "", Size: MaxFrame})...)) // 256 digests promised, none sent
	f.Add(append([]byte{1}, AppendImageChunk(nil, sha256.Sum256([]byte("chunk")), []byte("chunk"))...))
	f.Add(append([]byte{1}, make([]byte, digestLen)...)) // a digest and no bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, body := data[0], data[1:]
		if sel%2 == 0 {
			var m ImageManifest
			if DecodeImageManifest(body, &m) == nil {
				if len(m.Digests)*digestLen > len(body) {
					t.Fatal("manifest decoded more digests than it carried")
				}
				if !bytes.Equal(AppendImageManifest(nil, &m), body) {
					t.Fatal("non-canonical image manifest accepted")
				}
			}
		} else if h, chunk, err := DecodeImageChunk(body); err == nil {
			if !bytes.Equal(AppendImageChunk(nil, h, chunk), body) {
				t.Fatal("non-canonical image chunk accepted")
			}
		}
	})
}
