// Package transport carries the OddCI protocol over real TCP: the
// deployment skeleton for running the coordinator (Controller head-end
// + Backend) and the node agents as separate processes, a codec and
// socket adapter over messages other packages own. Frames are
// length-prefixed with a one-byte type; the handshake is two small JSON
// structs, control-plane payloads reuse the signed binary codecs from
// internal/control, the task plane encodes the Backend's own messages
// (backend.TaskRequest, TaskAssign, NoTask, TaskResult), and an image
// manifest is appimage's. There is one wire, WireVersion: both handshake
// frames carry it and each side refuses a peer that speaks another.
//
// Scope note: across processes the broadcast channel is emulated as a
// server push of the carousel contents to every connected node — the
// correct OddCI semantics (one logical transmission, every listener
// receives it) without per-node pacing. The virtual-time simulator
// remains the measurement instrument; this package is the interop and
// deployment path.
//
// Wire fast path: the coordinator pre-encodes the banner, control,
// manifest and chunk frames once per image generation and writes the
// same immutable bytes to every session, so staging N nodes costs O(1)
// encodes on the coordinator CPU — the broadcast invariant the paper's
// cost model rests on. Task-plane frames are built into reused buffers
// (BeginFrame/EndFrame), read through pooled payload buffers
// (FrameReader), and written in batches with explicit flush points.
// Task frames are pipelined, not one per round trip: each side flushes
// only when its next read would block, and a node runs backend.Worker,
// whose request window asks ahead while tasks take no device time, over
// its connection (taskChannel).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/backend"
	"oddci/internal/obs"
	"oddci/internal/simtime"
	"oddci/internal/span"
)

// WireVersion is the protocol generation both handshake frames carry.
// Any change a peer of the other layout would misread bumps it.
const WireVersion = 3

// ErrWireVersion reports a peer whose handshake carries another
// WireVersion; the session ends before anything else is exchanged.
var ErrWireVersion = errors.New("transport: peer speaks another wire version")

// FrameType tags a frame.
type FrameType uint8

// Frame types. 4 and 7–10 belonged to wire v1 (full-image push and the
// JSON task plane), 15 and 16 to wire v2 (the image plane under 64-bit
// chunk addresses); all stay retired, so an older frame never parses as
// a current one.
const (
	// FrameHello is the node's first frame: JSON Hello.
	FrameHello FrameType = 1
	// FrameBanner is the coordinator's first frame: JSON Banner
	// (carries the Controller public key, trust-on-first-use).
	FrameBanner FrameType = 2
	// FrameControl carries the signed control file (concatenated
	// envelopes, internal/control codec).
	FrameControl FrameType = 3
	// FrameHeartbeat carries an encoded control.Heartbeat.
	FrameHeartbeat FrameType = 5
	// FrameHeartbeatReply carries an encoded control.HeartbeatReply.
	FrameHeartbeatReply FrameType = 6
	// FrameTaskRequest, FrameTaskAssign, FrameNoTask and FrameTaskResult
	// carry the binary task-plane codec (below).
	FrameTaskRequest FrameType = 11
	FrameTaskAssign  FrameType = 12
	FrameNoTask      FrameType = 13
	FrameTaskResult  FrameType = 14
	// FrameImageManifest and FrameImageChunk carry the content-addressed
	// image plane: the manifest names the image and lists its chunk
	// digests in order; each chunk frame carries one digest-addressed
	// slice of the encoded image. A first staging is a delta from nothing.
	FrameImageManifest FrameType = 17
	FrameImageChunk    FrameType = 18
)

// MaxFrame bounds a frame's payload (images dominate).
const MaxFrame = 64 << 20

// Hello introduces a node; its device profile rides in heartbeats.
type Hello struct {
	// Wire is the node's WireVersion.
	Wire   int    `json:"wire"`
	NodeID uint64 `json:"node_id"`
}

// Banner introduces the coordinator.
type Banner struct {
	// Wire is the coordinator's WireVersion.
	Wire int `json:"wire"`
	// ControllerKey is the ed25519 public key (hex-free raw bytes,
	// base64 via JSON) nodes verify control frames against.
	ControllerKey []byte `json:"controller_key"`
	// Name labels the deployment.
	Name string `json:"name"`
	// Trace is the root wakeup span context of the instance this
	// coordinator stages. A constant for the coordinator's lifetime, so
	// the pre-encoded banner stays encode-once.
	Trace span.Context `json:"trace,omitempty"`
}

// Binary task-plane codec. Deterministic big-endian layouts in the
// style of internal/control:
//
//	request = node(8) flags(1)
//	assign  = job(8) task(8) ref(8) out(8) flags(1) len(4) payload
//	result  = node(8) job(8) task(8) flags(1) len(4) payload
//	no-task = retryMS(8) done(1)
//
// followed by the optional fields the flags byte announces, in bit
// order. Decoders are strict — unknown bits, a bit the shape may not
// carry, a tail whose length differs from what the flags say, and a set
// bit over an empty value are all rejected — so every accepted input is
// the canonical encoding of its message.
//
// A no-task's back-off travels in whole milliseconds; an assignment's
// InputSize (netsim's pacing size) does not travel. A new optional field is one field of the backend message and, here,
// one bit in this block and one clause each in appendExt and decodeExt.
const (
	extCred  byte = 1 << 0 // result credential, backend.CredentialLen bytes
	extTrace byte = 1 << 1 // span context, span.EncodedLen bytes
)

// appendExt appends the optional fields that are present and announces
// each in the flags byte at dst[flagsAt].
func appendExt(dst []byte, flagsAt int, cred []byte, trace span.Context) []byte {
	if len(cred) == backend.CredentialLen {
		dst[flagsAt] |= extCred
		dst = append(dst, cred...)
	}
	if trace.Valid() {
		dst[flagsAt] |= extTrace
		dst = trace.AppendBinary(dst)
	}
	return dst
}

// decodeExt parses the optional fields flags announces out of tail,
// which must hold exactly those. allowed lists the bits the shape may
// carry. The credential is appended to *cred, which the caller has
// emptied: a reused message keeps one credential buffer for its life.
func decodeExt(tail []byte, flags, allowed byte, cred *[]byte, trace *span.Context) error {
	if flags&^allowed != 0 {
		return fmt.Errorf("flags %#02x not allowed here", flags)
	}
	if flags&extCred != 0 {
		if len(tail) < backend.CredentialLen {
			return errors.New("truncated credential")
		}
		*cred = append(*cred, tail[:backend.CredentialLen]...)
		tail = tail[backend.CredentialLen:]
	}
	if flags&extTrace != 0 {
		if len(tail) < span.EncodedLen {
			return errors.New("truncated trace context")
		}
		ctx, err := span.DecodeBinary(tail[:span.EncodedLen])
		if err != nil || !ctx.Valid() {
			return errors.New("malformed trace context")
		}
		*trace = ctx
		tail = tail[span.EncodedLen:]
	}
	if len(tail) != 0 {
		return errors.New("trailing bytes")
	}
	return nil
}

// AppendTaskRequest appends the binary task-request payload to dst.
func AppendTaskRequest(dst []byte, m *backend.TaskRequest) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.NodeID)
	dst = append(dst, 0)
	return appendExt(dst, len(dst)-1, nil, m.Trace)
}

// DecodeTaskRequest reverses AppendTaskRequest into m.
func DecodeTaskRequest(b []byte, m *backend.TaskRequest) error {
	if len(b) < 9 {
		return errors.New("transport: truncated task request")
	}
	m.Trace = span.Context{}
	if err := decodeExt(b[9:], b[8], extTrace, nil, &m.Trace); err != nil {
		return fmt.Errorf("transport: task request: %w", err)
	}
	m.NodeID = binary.BigEndian.Uint64(b)
	return nil
}

// appendBody appends what assigns and results end with: flags(1) len(4)
// payload, then the optional fields.
func appendBody(dst, payload, cred []byte, trace span.Context) []byte {
	dst = append(dst, 0)
	flagsAt := len(dst) - 1
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return appendExt(append(dst, payload...), flagsAt, cred, trace)
}

// decodeBody reverses appendBody on b past its at bytes of fixed fields:
// it returns the payload, aliasing b, and decodes the optional fields
// into *cred, which it empties first, and *trace.
func decodeBody(b []byte, at int, cred *[]byte, trace *span.Context) ([]byte, error) {
	if len(b) < at+5 {
		return nil, errors.New("truncated")
	}
	end := at + 5 + int(binary.BigEndian.Uint32(b[at+1:]))
	if end > len(b) {
		return nil, errors.New("payload length mismatch")
	}
	*cred, *trace = (*cred)[:0], span.Context{}
	if err := decodeExt(b[end:], b[at], extCred|extTrace, cred, trace); err != nil {
		return nil, err
	}
	return b[at+5 : end], nil
}

// AppendTaskAssign appends the binary task-assign payload to dst.
func AppendTaskAssign(dst []byte, m *backend.TaskAssign) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.JobID)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.TaskID)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.RefSeconds))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.OutputSize)))
	return appendBody(dst, m.Payload, m.Credential, m.Trace)
}

// DecodeTaskAssign reverses AppendTaskAssign into m, setting InputSize
// to len(Payload). Payload and Credential are copied out of b, which may
// therefore be a reused frame buffer, into m's own buffers: they are
// valid until the next decode into m, and a session that reuses m
// allocates nothing per assignment.
func DecodeTaskAssign(b []byte, m *backend.TaskAssign) error {
	payload, err := decodeBody(b, 32, &m.Credential, &m.Trace)
	if err != nil {
		return fmt.Errorf("transport: task assign: %w", err)
	}
	m.JobID = int(int64(binary.BigEndian.Uint64(b)))
	m.TaskID = int(int64(binary.BigEndian.Uint64(b[8:])))
	m.RefSeconds = math.Float64frombits(binary.BigEndian.Uint64(b[16:]))
	m.OutputSize = int(int64(binary.BigEndian.Uint64(b[24:])))
	m.Payload = append(m.Payload[:0], payload...)
	m.InputSize = len(m.Payload)
	return nil
}

// AppendNoTask appends the binary no-task payload to dst.
func AppendNoTask(dst []byte, m *backend.NoTask) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.RetryAfter.Milliseconds()))
	done := byte(0)
	if m.Done {
		done = 1
	}
	return append(dst, done)
}

// DecodeNoTask reverses AppendNoTask into m. A back-off too long for a
// time.Duration is refused.
func DecodeNoTask(b []byte, m *backend.NoTask) error {
	if len(b) != 9 || b[8] > 1 {
		return errors.New("transport: malformed no-task")
	}
	ms := int64(binary.BigEndian.Uint64(b))
	if ms > math.MaxInt64/int64(time.Millisecond) || ms < math.MinInt64/int64(time.Millisecond) {
		return errors.New("transport: no-task back-off out of range")
	}
	m.RetryAfter = time.Duration(ms) * time.Millisecond
	m.Done = b[8] == 1
	return nil
}

// AppendTaskResult appends the binary task-result payload to dst.
func AppendTaskResult(dst []byte, m *backend.TaskResult) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.NodeID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.JobID)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(m.TaskID)))
	return appendBody(dst, m.Payload, m.Credential, m.Trace)
}

// DecodeTaskResult reverses AppendTaskResult into m, copying out of b,
// which may therefore be a reused frame buffer. Credential goes into m's
// own buffer and is valid until the next decode into m: the backend
// reads a credential and never keeps it. Payload is a fresh copy every
// time (nil when empty), because the backend keeps it as a vote.
func DecodeTaskResult(b []byte, m *backend.TaskResult) error {
	payload, err := decodeBody(b, 24, &m.Credential, &m.Trace)
	if err != nil {
		return fmt.Errorf("transport: task result: %w", err)
	}
	m.NodeID = binary.BigEndian.Uint64(b)
	m.JobID = int(int64(binary.BigEndian.Uint64(b[8:])))
	m.TaskID = int(int64(binary.BigEndian.Uint64(b[16:])))
	m.Payload = append([]byte(nil), payload...)
	return nil
}

// Binary image-plane codec, strict and canonical like the task plane:
//
//	manifest = nameLen(2) name size(4) digest(32)...
//	chunk    = digest(32) bytes
//
// The manifest is the image file's name, then appimage.AppendManifest's
// encoding, the one the journal stores.

// maxImageSize bounds the size a manifest may name: a node assembles the
// image in one buffer, no larger than a frame.
const maxImageSize = MaxFrame

// checkImageSize refuses, without encoding it, an image that encodes
// past maxImageSize, which no node would accept. A nil image passes.
func checkImageSize(img *appimage.Image) error {
	if img != nil && img.EncodedLen() > maxImageSize {
		return fmt.Errorf("transport: image encodes to %d bytes, over the %d a node accepts", img.EncodedLen(), maxImageSize)
	}
	return nil
}

// AppendImageManifest appends the manifest payload of image file name,
// size bytes whose chunks hash to chunks, to dst.
func AppendImageManifest(dst []byte, name string, size int, chunks []appimage.Digest) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	return appimage.AppendManifest(dst, size, chunks)
}

// DecodeImageManifest reverses AppendImageManifest, bounding size to
// (0, maxImageSize].
func DecodeImageManifest(b []byte) (name string, size int, chunks []appimage.Digest, err error) {
	if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
		return "", 0, nil, errors.New("transport: truncated image manifest")
	}
	n := 2 + int(binary.BigEndian.Uint16(b))
	if size, chunks, err = appimage.DecodeManifest(b[n:]); err != nil {
		return "", 0, nil, fmt.Errorf("transport: %w", err)
	}
	if size == 0 || size > maxImageSize {
		return "", 0, nil, fmt.Errorf("transport: image manifest size %d out of range", size)
	}
	return string(b[2:n]), size, chunks, nil
}

// AppendImageChunk appends the binary chunk payload to dst.
func AppendImageChunk(dst []byte, digest appimage.Digest, data []byte) []byte {
	dst = append(dst, digest[:]...)
	return append(dst, data...)
}

// DecodeImageChunk reverses AppendImageChunk. data aliases b; whether
// it hashes to digest is the receiver's check, not the codec's.
func DecodeImageChunk(b []byte) (digest appimage.Digest, data []byte, err error) {
	if len(b) <= len(digest) {
		return digest, nil, errors.New("transport: truncated image chunk")
	}
	return appimage.Digest(b), b[len(digest):], nil
}

// Frame buffer pool: FrameReaders' payload buffers share one
// size-capped sync.Pool. Buffers above poolBufCap are allocated one-shot
// and never pooled, so an occasional huge image frame cannot pin memory.
const poolBufCap = 64 << 10

var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, poolBufCap)
	return &b
}}

var poolHits, poolMisses atomic.Uint64

// FramePoolStats reports how many frames were read into a pooled
// buffer (hits) versus an oversized one-shot buffer (misses),
// process-wide. A FrameReader counts its own frames and adds them here
// when it closes.
func FramePoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

func putFrameBuf(b *[]byte) {
	if cap(*b) <= poolBufCap {
		*b = (*b)[:0]
		framePool.Put(b)
	}
}

// AppendFrame appends a complete frame (header + payload) to dst — the
// encode-once path for broadcast artifacts that are written verbatim
// to every session.
func AppendFrame(dst []byte, t FrameType, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(payload))
	}
	dst = append(dst, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// BeginFrame appends a frame header for t with a placeholder length to
// dst. The caller appends the payload directly (e.g. via
// AppendTaskAssign) and then calls EndFrame with the pre-BeginFrame
// length — the zero-allocation write path for hot frames built into a
// reused buffer.
func BeginFrame(dst []byte, t FrameType) []byte {
	return append(dst, byte(t), 0, 0, 0, 0)
}

// EndFrame patches the length of the frame begun at offset start.
func EndFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 5
	if n < 0 {
		return nil, errors.New("transport: EndFrame without BeginFrame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start+1:start+5], uint32(n))
	return b, nil
}

// ErrFrameTooLarge reports an oversized incoming frame.
var ErrFrameTooLarge = errors.New("transport: incoming frame exceeds limit")

// readFrame consumes one frame into a freshly allocated payload: the
// plain reference FrameReader is checked against. Session loops use
// FrameReader, which reuses a pooled buffer across frames.
func readFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return FrameType(hdr[0]), payload, nil
}

// frameReadBufSize is the bufio.Reader size behind a FrameReader.
const frameReadBufSize = 32 << 10

// FrameReader reads frames through buffered I/O into a pooled payload
// buffer. The payload returned by Next is valid only until the
// following Next or Close; decoders that retain bytes must copy (the
// binary task-plane decoders do).
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
	// hdr lives here, not in Next's frame: ReadFull takes it through an
	// interface, which would move a local to the heap on every call.
	hdr [5]byte
	// hits and misses are this reader's share of FramePoolStats, folded
	// in at Close so that sessions do not write one shared cache line per
	// frame.
	hits, misses uint64
	// optional read-latency instrumentation (payload drain time after
	// the header arrived — excludes idle wait for the next frame).
	hist *obs.Histogram
	clk  simtime.Clock
}

// NewFrameReader wraps r. Call Close when the stream ends to return
// the payload buffer to the pool.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{
		br:  bufio.NewReaderSize(r, frameReadBufSize),
		buf: *framePool.Get().(*[]byte),
	}
}

// Instrument records each frame's payload-read latency into h using
// clk (both may be nil to disable).
func (fr *FrameReader) Instrument(h *obs.Histogram, clk simtime.Clock) {
	fr.hist = h
	fr.clk = clk
}

// Buffered reports bytes already read from the connection but not yet
// consumed — zero means the next Next will block, so callers should
// flush pending replies first.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// Next reads one frame. The payload aliases the reader's reused buffer.
func (fr *FrameReader) Next() (FrameType, []byte, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[1:]))
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if n > cap(fr.buf) {
		fr.misses++
		fr.buf = make([]byte, 0, n)
	} else {
		fr.hits++
	}
	payload := fr.buf[:n]
	var t0 time.Time
	if fr.hist != nil && fr.clk != nil {
		t0 = fr.clk.Now()
	}
	if _, err := io.ReadFull(fr.br, payload); err != nil {
		return 0, nil, err
	}
	if fr.hist != nil && fr.clk != nil {
		fr.hist.ObserveDuration(fr.clk.Now().Sub(t0))
	}
	return FrameType(fr.hdr[0]), payload, nil
}

// Close returns the payload buffer to the pool and adds the reader's
// frame counts to FramePoolStats.
func (fr *FrameReader) Close() {
	if fr.buf != nil {
		b := fr.buf
		fr.buf = nil
		putFrameBuf(&b)
		poolHits.Add(fr.hits)
		poolMisses.Add(fr.misses)
	}
}
