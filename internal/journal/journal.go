// Package journal is the Controller's durability layer: a compact
// binary snapshot of control-plane state (instances, wanted sizes,
// sequence counters, reset-retransmission windows) plus an append-only
// journal of lifecycle mutations (create / resize / recompose /
// destroy / gc). A crashed coordinator replays snapshot+journal to
// recover exactly the instances it was maintaining, so the broadcast
// channel's O(1) staging advantage is not forfeited to an O(N)
// re-stage after every restart.
//
// The design splits cleanly in two:
//
//   - the codec and replay state machine (this file): deterministic
//     binary encodings with CRC-32 framing, and a State that applies
//     Records idempotently — replaying the same journal twice yields
//     the same State, and two independent replays of the same bytes
//     yield byte-identical snapshots;
//   - the file Store (store.go): snapshot + journal files on disk,
//     fsync'd appends, and periodic snapshot compaction. Snapshots are
//     numbered by generation and a journal names the one it extends,
//     so a journal that a compaction folded in but did not get to
//     truncate is skipped rather than replayed.
//
// Images are stored by chunk, under the same digests the TCP image
// plane names: one digest tree. A record carries its image as a
// manifest, the image's size and the SHA-256 of each of its
// appimage.ChunkBytes chunks (the list appimage.RootOf roots), and a
// chunk's bytes are written once, just before the first record that
// names them, unless the snapshot or an earlier frame already holds
// them. So an update that changes two chunks of an image appends those
// two chunks and a manifest, not the image; and a snapshot holds each
// distinct chunk of the live images once.
//
// What is deliberately NOT journaled: instance membership, node state,
// and heartbeat back-pressure tuning. All of it is reconstructed from
// the next round of heartbeats after a restart — the PNAs are the
// authoritative source of their own state, exactly as §3.2 consolidates
// it in steady state.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
)

// Typed decode errors, matchable with errors.Is. A corrupt or truncated
// file must fail loudly instead of yielding partial state: recovering
// half a control plane and then broadcasting from it is worse than
// refusing to start.
var (
	// ErrCorrupt reports a snapshot or journal whose framing, checksum,
	// or field encoding is invalid.
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrTruncated reports a journal whose final record runs past the
	// end of the file (a torn append). It wraps ErrCorrupt.
	ErrTruncated = fmt.Errorf("%w: truncated tail", ErrCorrupt)
)

// Op classifies one journaled lifecycle mutation.
type Op uint8

// Journal operations, mirroring the Controller's instance state
// machine. OpRecompose also covers head-end wakeup retransmissions
// (sequence bumps) outside the maintenance loop.
const (
	OpCreate Op = iota + 1
	OpResize
	OpRecompose
	OpDestroy
	OpGC
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpResize:
		return "resize"
	case OpRecompose:
		return "recompose"
	case OpDestroy:
		return "destroy"
	case OpGC:
		return "gc"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// InstanceRecord is the durable image of one instance: everything the
// Controller needs to re-enter the carousel at the recorded generation
// — spec, image bytes, and counters — and nothing reconstructable from
// heartbeats (membership, trim progress, back-pressure periods).
type InstanceRecord struct {
	ID      uint64
	Seq     uint32
	Wakeups uint32
	Resets  uint32
	// Probability is the last broadcast wakeup probability; the
	// recovered wakeup envelope re-airs with it.
	Probability float64
	Destroyed   bool
	// ResetTicks is the reset-retransmission window at destroy time; a
	// recovered destroyed instance restarts the full window (every
	// grace-windowed PNA gets another chance to observe the reset).
	ResetTicks      int32
	Target          int32
	HeartbeatPeriod time.Duration
	Lifetime        time.Duration
	Requirements    instance.Requirements
	ImageFile       string
	// Image is the canonical appimage encoding staged on the head-end.
	// The state keeps it, and a record hands it over, as an immutable
	// buffer: nothing writes to it once it is recorded.
	Image []byte
	// Chunks are the SHA-256 digests of Image's appimage.ChunkBytes
	// chunks, in order: the list appimage.RootOf(len(Image), Chunks)
	// roots and the TCP manifest names, and the keys the journal stores
	// Image's bytes under. A record handed to Append or Compact may leave
	// it nil, and the store hashes Image itself; Load fills it, checked
	// against the bytes.
	Chunks []appimage.Digest
}

// Record is one journal entry. Inst carries the full record for
// OpCreate; the other ops use only the fields they mutate (ID always,
// plus Seq/Wakeups/Probability — and, for image replacements, Image
// and Chunks — for recompose, Seq/Resets/ResetTicks for destroy, Target for resize).
// Fields are absolute values, never deltas, which is what makes replay
// idempotent.
type Record struct {
	Op   Op
	Inst InstanceRecord
}

// Snapshot is the compact full-state image written at compaction time.
// Instances are in carousel (creation) order; replay preserves it.
type Snapshot struct {
	// Gen numbers the compaction that wrote the snapshot (a State's
	// Snapshot leaves it 0; Store.Compact counts up). The journal after
	// it names the same Gen, so a journal that names an earlier one is
	// one a compaction already folded in and was cut before resetting.
	Gen       uint64
	NextID    uint64
	Instances []InstanceRecord
}

// File magics and the codec version. Version 2 stores images by chunk
// and numbers snapshot generations; a version-1 state dir, which held
// each image whole in its records, is refused with the version error
// and not migrated.
var (
	snapshotMagic = [4]byte{'O', 'J', 'S', 'N'}
	journalMagic  = [4]byte{'O', 'J', 'N', 'L'}
)

const codecVersion = 2

// journalHeader is the fixed prefix of a journal file: magic(4) |
// version(1) | gen(8), gen being the snapshot generation it extends.
func journalHeader(gen uint64) []byte {
	b := append(journalMagic[:], codecVersion)
	return binary.BigEndian.AppendUint64(b, gen)
}

const journalHeaderLen = 13

// parseJournalHeader checks a journal file's header and returns the
// snapshot generation it extends and the frames after it.
func parseJournalHeader(b []byte) (gen uint64, frames []byte, err error) {
	if len(b) < 5 || [4]byte(b[:4]) != journalMagic {
		return 0, nil, fmt.Errorf("%w: bad journal header", ErrCorrupt)
	}
	if b[4] != codecVersion {
		return 0, nil, fmt.Errorf("%w: journal version %d (want %d)", ErrCorrupt, b[4], codecVersion)
	}
	if len(b) < journalHeaderLen {
		return 0, nil, fmt.Errorf("%w: short journal header", ErrCorrupt)
	}
	return binary.BigEndian.Uint64(b[5:]), b[journalHeaderLen:], nil
}

// opChunk tags a chunk frame: one stored chunk, digest(32) | bytes. It
// is a frame of the journal file, not a Record's op: a chunk frame
// precedes the first record whose manifest names it.
const opChunk Op = 6

const digestLen = len(appimage.Digest{})

// chunksOf returns the chunk digests of r's image: r.Chunks, which must
// hold one digest per chunk, or, when the caller left them out, Image
// hashed here.
func chunksOf(r *InstanceRecord) ([]appimage.Digest, error) {
	if uint64(len(r.Image)) > math.MaxUint32 {
		return nil, fmt.Errorf("journal: %d-byte image too large", len(r.Image))
	}
	if r.Chunks == nil {
		return appimage.ChunkDigests(nil, r.Image), nil
	}
	if n := appimage.ChunkCount(len(r.Image)); len(r.Chunks) != n {
		return nil, fmt.Errorf("journal: %d chunk digests for a %d-byte image (want %d)", len(r.Chunks), len(r.Image), n)
	}
	return r.Chunks, nil
}

// appendManifest encodes an image as its manifest: size(4), then the
// digest of each of its appimage.ChunkCount(size) chunks.
func appendManifest(b []byte, size int, chunks []appimage.Digest) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(size))
	for i := range chunks {
		b = append(b, chunks[i][:]...)
	}
	return b
}

// decodeManifest parses a manifest off the front of b.
func decodeManifest(b []byte) (size int, chunks []appimage.Digest, rest []byte, err error) {
	if len(b) < 4 {
		return 0, nil, nil, fmt.Errorf("%w: short image manifest", ErrCorrupt)
	}
	size = int(binary.BigEndian.Uint32(b))
	n := appimage.ChunkCount(size)
	b = b[4:]
	if len(b)/digestLen < n {
		return 0, nil, nil, fmt.Errorf("%w: manifest of a %d-byte image lists %d of %d chunks", ErrCorrupt, size, len(b)/digestLen, n)
	}
	if n > 0 {
		chunks = make([]appimage.Digest, n)
		for i := range chunks {
			chunks[i] = appimage.Digest(b[i*digestLen:])
		}
	}
	return size, chunks, b[n*digestLen:], nil
}

func appendInstance(b []byte, r *InstanceRecord, chunks []appimage.Digest) ([]byte, error) {
	if len(r.ImageFile) > 255 {
		return nil, errors.New("journal: image file name too long")
	}
	if r.HeartbeatPeriod < 0 || r.Lifetime < 0 {
		return nil, errors.New("journal: negative durations")
	}
	if r.Probability < 0 || r.Probability > 1 || math.IsNaN(r.Probability) {
		return nil, fmt.Errorf("journal: probability %v out of [0,1]", r.Probability)
	}
	b = binary.BigEndian.AppendUint64(b, r.ID)
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	b = binary.BigEndian.AppendUint32(b, r.Wakeups)
	b = binary.BigEndian.AppendUint32(b, r.Resets)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Probability))
	var flags byte
	if r.Destroyed {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint32(b, uint32(r.ResetTicks))
	b = binary.BigEndian.AppendUint32(b, uint32(r.Target))
	b = binary.BigEndian.AppendUint64(b, uint64(r.HeartbeatPeriod))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Lifetime))
	b = r.Requirements.Encode(b)
	b = append(b, byte(len(r.ImageFile)))
	b = append(b, r.ImageFile...)
	return appendManifest(b, len(r.Image), chunks), nil
}

// decodeInstance parses an instance record whose image is still a
// manifest: size and chunks, for a chunkTable to resolve.
func decodeInstance(b []byte) (r InstanceRecord, size int, rest []byte, err error) {
	const fixed = 8 + 4 + 4 + 4 + 8 + 1 + 4 + 4 + 8 + 8
	if len(b) < fixed {
		return r, 0, nil, fmt.Errorf("%w: short instance record", ErrCorrupt)
	}
	r = InstanceRecord{
		ID:      binary.BigEndian.Uint64(b),
		Seq:     binary.BigEndian.Uint32(b[8:]),
		Wakeups: binary.BigEndian.Uint32(b[12:]),
		Resets:  binary.BigEndian.Uint32(b[16:]),
	}
	r.Probability = math.Float64frombits(binary.BigEndian.Uint64(b[20:]))
	if r.Probability < 0 || r.Probability > 1 || math.IsNaN(r.Probability) {
		return r, 0, nil, fmt.Errorf("%w: probability out of range", ErrCorrupt)
	}
	flags := b[28]
	if flags&^byte(1) != 0 {
		return r, 0, nil, fmt.Errorf("%w: unknown instance flags %#x", ErrCorrupt, flags)
	}
	r.Destroyed = flags&1 != 0
	r.ResetTicks = int32(binary.BigEndian.Uint32(b[29:]))
	r.Target = int32(binary.BigEndian.Uint32(b[33:]))
	r.HeartbeatPeriod = time.Duration(binary.BigEndian.Uint64(b[37:]))
	r.Lifetime = time.Duration(binary.BigEndian.Uint64(b[45:]))
	if r.HeartbeatPeriod < 0 || r.Lifetime < 0 {
		return r, 0, nil, fmt.Errorf("%w: negative durations", ErrCorrupt)
	}
	r.Requirements, b, err = instance.DecodeRequirements(b[53:])
	if err != nil {
		return r, 0, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(b) < 1 {
		return r, 0, nil, fmt.Errorf("%w: missing image name", ErrCorrupt)
	}
	nameLen := int(b[0])
	b = b[1:]
	if len(b) < nameLen {
		return r, 0, nil, fmt.Errorf("%w: short image name", ErrCorrupt)
	}
	r.ImageFile = string(b[:nameLen])
	size, r.Chunks, rest, err = decodeManifest(b[nameLen:])
	return r, size, rest, err
}

// hasImage reports whether r carries an image: every create, and a
// recompose that replaces the image (a maintenance recompose, a
// sequence bump, carries none).
func hasImage(r *Record) bool {
	return r.Op == OpCreate || r.Op == OpRecompose && len(r.Inst.Image) > 0
}

// appendRecordPayload encodes one record (without framing), its image,
// if any, as the manifest chunks. Each op carries only the fields it
// mutates, keeping steady-state journal growth to a few dozen bytes per
// lifecycle transition.
func appendRecordPayload(b []byte, r *Record, chunks []appimage.Digest) ([]byte, error) {
	b = append(b, byte(r.Op))
	switch r.Op {
	case OpCreate:
		return appendInstance(b, &r.Inst, chunks)
	case OpResize:
		b = binary.BigEndian.AppendUint64(b, r.Inst.ID)
		b = binary.BigEndian.AppendUint32(b, uint32(r.Inst.Target))
		return b, nil
	case OpRecompose:
		b = binary.BigEndian.AppendUint64(b, r.Inst.ID)
		b = binary.BigEndian.AppendUint32(b, r.Inst.Seq)
		b = binary.BigEndian.AppendUint32(b, r.Inst.Wakeups)
		if r.Inst.Probability < 0 || r.Inst.Probability > 1 || math.IsNaN(r.Inst.Probability) {
			return nil, fmt.Errorf("journal: probability %v out of [0,1]", r.Inst.Probability)
		}
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Inst.Probability))
		// An image replacement (Controller.Recompose) appends the new
		// image's manifest so replay re-enters the head-end with the new
		// content; a sequence bump ends here.
		if hasImage(r) {
			b = appendManifest(b, len(r.Inst.Image), chunks)
		}
		return b, nil
	case OpDestroy:
		b = binary.BigEndian.AppendUint64(b, r.Inst.ID)
		b = binary.BigEndian.AppendUint32(b, r.Inst.Seq)
		b = binary.BigEndian.AppendUint32(b, r.Inst.Resets)
		b = binary.BigEndian.AppendUint32(b, uint32(r.Inst.ResetTicks))
		return b, nil
	case OpGC:
		b = binary.BigEndian.AppendUint64(b, r.Inst.ID)
		return b, nil
	default:
		return nil, fmt.Errorf("journal: unknown op %d", r.Op)
	}
}

// decodeRecordPayload parses one record. A create or image-bearing
// recompose comes back with its manifest's chunks in Inst.Chunks and
// its size, for a chunkTable to rebuild Inst.Image from.
func decodeRecordPayload(b []byte) (r Record, size int, err error) {
	if len(b) < 1 {
		return r, 0, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	r.Op = Op(b[0])
	b = b[1:]
	need := func(n int) error {
		if len(b) < n {
			return fmt.Errorf("%w: short %s record", ErrCorrupt, r.Op)
		}
		return nil
	}
	switch r.Op {
	case OpCreate:
		var rest []byte
		if r.Inst, size, rest, err = decodeInstance(b); err != nil {
			return r, 0, err
		}
		if len(rest) != 0 {
			return r, 0, fmt.Errorf("%w: trailing bytes in create record", ErrCorrupt)
		}
	case OpResize:
		if err := need(12); err != nil {
			return r, 0, err
		}
		r.Inst.ID = binary.BigEndian.Uint64(b)
		r.Inst.Target = int32(binary.BigEndian.Uint32(b[8:]))
	case OpRecompose:
		if err := need(24); err != nil {
			return r, 0, err
		}
		r.Inst.ID = binary.BigEndian.Uint64(b)
		r.Inst.Seq = binary.BigEndian.Uint32(b[8:])
		r.Inst.Wakeups = binary.BigEndian.Uint32(b[12:])
		r.Inst.Probability = math.Float64frombits(binary.BigEndian.Uint64(b[16:]))
		if r.Inst.Probability < 0 || r.Inst.Probability > 1 || math.IsNaN(r.Inst.Probability) {
			return r, 0, fmt.Errorf("%w: probability out of range", ErrCorrupt)
		}
		if rest := b[24:]; len(rest) > 0 {
			if size, r.Inst.Chunks, rest, err = decodeManifest(rest); err != nil {
				return r, 0, err
			}
			if size == 0 || len(rest) != 0 {
				return r, 0, fmt.Errorf("%w: recompose manifest of %d bytes with %d trailing", ErrCorrupt, size, len(rest))
			}
		}
	case OpDestroy:
		if err := need(20); err != nil {
			return r, 0, err
		}
		r.Inst.ID = binary.BigEndian.Uint64(b)
		r.Inst.Seq = binary.BigEndian.Uint32(b[8:])
		r.Inst.Resets = binary.BigEndian.Uint32(b[12:])
		r.Inst.ResetTicks = int32(binary.BigEndian.Uint32(b[16:]))
	case OpGC:
		if err := need(8); err != nil {
			return r, 0, err
		}
		r.Inst.ID = binary.BigEndian.Uint64(b)
	default:
		return r, 0, fmt.Errorf("%w: unknown op %d", ErrCorrupt, uint8(r.Op))
	}
	return r, size, nil
}

// appendFrame frames one payload for the journal file:
// length(4) | payload | crc32(payload).
func appendFrame(b, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// appendRecordFrames appends r's frame to b, preceded, in slot order, by
// a chunk frame for each chunk of its image that held lacks; each chunk
// it stores joins held. r is checked before anything is stored, so on an
// error held is as it was.
func appendRecordFrames(b []byte, r Record, held map[appimage.Digest]struct{}) ([]byte, error) {
	var chunks []appimage.Digest
	if hasImage(&r) {
		var err error
		if chunks, err = chunksOf(&r.Inst); err != nil {
			return nil, err
		}
	}
	payload, err := appendRecordPayload(make([]byte, 0, 128+len(r.Inst.ImageFile)+len(chunks)*digestLen), &r, chunks)
	if err != nil {
		return nil, err
	}
	need := len(payload) + 8
	for i, d := range chunks {
		if _, ok := held[d]; !ok {
			need += 8 + 1 + digestLen + len(appimage.Chunk(r.Inst.Image, i))
		}
	}
	b = slices.Grow(b, need)
	for i, d := range chunks {
		if _, ok := held[d]; ok {
			continue
		}
		held[d] = struct{}{}
		data := appimage.Chunk(r.Inst.Image, i)
		b = binary.BigEndian.AppendUint32(b, uint32(1+digestLen+len(data)))
		start := len(b)
		b = append(b, byte(opChunk))
		b = append(b, d[:]...)
		b = append(b, data...)
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	}
	return appendFrame(b, payload), nil
}

// forgetChunks removes from held the digests of the chunk frames at the
// front of frames, as appendRecordFrames built them: the chunks an
// append that did not land failed to store.
func forgetChunks(frames []byte, held map[appimage.Digest]struct{}) {
	for len(frames) > 4 {
		n := int(binary.BigEndian.Uint32(frames))
		if Op(frames[4]) != opChunk {
			return
		}
		delete(held, appimage.Digest(frames[5:]))
		frames = frames[4+n+4:]
	}
}

// encodeJournal renders a whole journal file (header + framed records)
// extending snapshot generation gen, as if over no snapshot: each
// chunk's bytes go in before the first record that names it, once.
// DecodeJournal inverts it byte for byte.
func encodeJournal(gen uint64, recs []Record) ([]byte, error) {
	b := journalHeader(gen)
	held := make(map[appimage.Digest]struct{})
	for _, r := range recs {
		var err error
		if b, err = appendRecordFrames(b, r, held); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// chunkTable is the chunks a state dir stores, keyed by digest, as a
// decoder meets them. pending holds the chunks stored since the last
// manifest, which the next manifest must name, in order, as its first
// appearances of digests the table lacks: the one order an encoder
// writes, so whatever decodes re-encodes to the same bytes.
type chunkTable struct {
	held    map[appimage.Digest][]byte
	pending []storedChunk
}

type storedChunk struct {
	d    appimage.Digest
	data []byte
}

func newChunkTable() *chunkTable {
	return &chunkTable{held: make(map[appimage.Digest][]byte)}
}

// resolve rebuilds the size-byte image whose chunks are ds. A chunk the
// table holds supplies its bytes; any other must be the next pending
// chunk, which joins the table. Every slot is checked, for presence and
// length, before the image is allocated, so a manifest naming a chunk
// nothing stores fails whole: no short image.
func (t *chunkTable) resolve(size int, ds []appimage.Digest) ([]byte, error) {
	for i, d := range ds {
		data, ok := t.held[d]
		if !ok {
			if len(t.pending) == 0 || t.pending[0].d != d {
				return nil, fmt.Errorf("%w: manifest names chunk %x, which no snapshot or earlier record holds", ErrCorrupt, d[:8])
			}
			data = t.pending[0].data
			t.pending = t.pending[1:]
			t.held[d] = data
		}
		if want := min(appimage.ChunkBytes, size-i*appimage.ChunkBytes); len(data) != want {
			return nil, fmt.Errorf("%w: chunk %d of a %d-byte image holds %d bytes (want %d)", ErrCorrupt, i, size, len(data), want)
		}
	}
	img := make([]byte, size)
	for i, d := range ds {
		copy(img[i*appimage.ChunkBytes:], t.held[d])
	}
	return img, nil
}

// DecodeJournal parses a journal file strictly, returning the snapshot
// generation it extends and its records, decoded as if over no
// snapshot: a bad header, a record whose checksum or encoding is
// invalid, or a manifest naming a chunk no earlier frame stores
// (ErrCorrupt), or a final frame that runs past the end of the file or
// chunk frames with no record after them (ErrTruncated) fails the whole
// decode — no partial state escapes. An empty file is an empty journal.
func DecodeJournal(b []byte) (gen uint64, recs []Record, err error) {
	if len(b) == 0 {
		return 0, nil, nil
	}
	gen, frames, err := parseJournalHeader(b)
	if err != nil {
		return 0, nil, err
	}
	if err := decodeJournal(frames, newChunkTable(), func(r Record) { recs = append(recs, r) }); err != nil {
		return 0, nil, err
	}
	return gen, recs, nil
}

// decodeJournal decodes a journal's frames (b, past its header) over
// the chunks t holds (a snapshot's), handing each record to apply as it
// decodes, so a replay holds one rebuilt image per instance, not one
// per record.
func decodeJournal(b []byte, t *chunkTable, apply func(Record)) error {
	for n := 0; len(b) > 0; n++ {
		if len(b) < 4 {
			return ErrTruncated
		}
		plen := int(binary.BigEndian.Uint32(b))
		if len(b)-8 < plen {
			return ErrTruncated
		}
		payload := b[4 : 4+plen]
		sum := binary.BigEndian.Uint32(b[4+plen:])
		b = b[4+plen+4:]
		if crc32.ChecksumIEEE(payload) != sum {
			return fmt.Errorf("%w: frame %d checksum mismatch", ErrCorrupt, n)
		}
		if len(payload) > 0 && Op(payload[0]) == opChunk {
			if len(payload) < 1+digestLen {
				return fmt.Errorf("%w: short chunk frame", ErrCorrupt)
			}
			t.pending = append(t.pending, storedChunk{appimage.Digest(payload[1:]), payload[1+digestLen:]})
			continue
		}
		r, size, err := decodeRecordPayload(payload)
		if err != nil {
			return err
		}
		if r.Inst.Chunks != nil || r.Op == OpCreate {
			if r.Inst.Image, err = t.resolve(size, r.Inst.Chunks); err != nil {
				return err
			}
		}
		if len(t.pending) != 0 {
			return fmt.Errorf("%w: frame %d stores a chunk its record does not name", ErrCorrupt, n)
		}
		apply(r)
	}
	if len(t.pending) != 0 {
		return ErrTruncated // chunks whose record never landed: a torn append
	}
	return nil
}

// encodeSnapshot renders a snapshot file, and returns the digests of
// the chunks it stores:
// magic(4) | version(1) | gen(8) | nextID(8) | count(4) | chunks | count(4) |
// instances | crc32(all). A chunk is digest(32) | length(4) | bytes;
// each distinct chunk of the instances' images is stored once, in order
// of first appearance, and the instances carry their images as
// manifests.
func encodeSnapshot(s *Snapshot) ([]byte, map[appimage.Digest]struct{}, error) {
	type slot struct{ inst, i int }
	lists := make([][]appimage.Digest, len(s.Instances))
	held := make(map[appimage.Digest]struct{})
	var stored []slot
	size := snapshotMinLen
	for k := range s.Instances {
		chunks, err := chunksOf(&s.Instances[k])
		if err != nil {
			return nil, nil, err
		}
		lists[k] = chunks
		for i, d := range chunks {
			if _, ok := held[d]; !ok {
				held[d] = struct{}{}
				stored = append(stored, slot{k, i})
				size += digestLen + 4 + len(appimage.Chunk(s.Instances[k].Image, i))
			}
		}
		size += 128 + len(chunks)*digestLen
	}
	b := make([]byte, 0, size)
	b = append(b, snapshotMagic[:]...)
	b = append(b, codecVersion)
	b = binary.BigEndian.AppendUint64(b, s.Gen)
	b = binary.BigEndian.AppendUint64(b, s.NextID)
	b = binary.BigEndian.AppendUint32(b, uint32(len(stored)))
	for _, c := range stored {
		data := appimage.Chunk(s.Instances[c.inst].Image, c.i)
		b = append(b, lists[c.inst][c.i][:]...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
		b = append(b, data...)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Instances)))
	for k := range s.Instances {
		var err error
		if b, err = appendInstance(b, &s.Instances[k], lists[k]); err != nil {
			return nil, nil, err
		}
	}
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), held, nil
}

// snapshotMinLen is an empty snapshot's length: header, both counts and
// the checksum.
const snapshotMinLen = 5 + 8 + 8 + 4 + 4 + 4

// decodeSnapshot parses a snapshot file strictly, and returns its chunk
// table for the journal after it to resolve against: besides framing
// and field checks, every manifest must name stored chunks of the right
// lengths, and every stored chunk must be named, in order of first
// appearance.
func decodeSnapshot(b []byte) (*Snapshot, *chunkTable, error) {
	if len(b) < snapshotMinLen {
		return nil, nil, fmt.Errorf("%w: short snapshot", ErrCorrupt)
	}
	if [4]byte(b[:4]) != snapshotMagic {
		return nil, nil, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	if b[4] != codecVersion {
		return nil, nil, fmt.Errorf("%w: snapshot version %d (want %d)", ErrCorrupt, b[4], codecVersion)
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	s := &Snapshot{Gen: binary.BigEndian.Uint64(body[5:]), NextID: binary.BigEndian.Uint64(body[13:])}
	t := newChunkTable()
	count := int(binary.BigEndian.Uint32(body[21:]))
	rest := body[25:]
	for ; count > 0; count-- {
		if len(rest) < digestLen+4 {
			return nil, nil, fmt.Errorf("%w: short snapshot chunk", ErrCorrupt)
		}
		d, n := appimage.Digest(rest), int(binary.BigEndian.Uint32(rest[digestLen:]))
		rest = rest[digestLen+4:]
		if len(rest) < n {
			return nil, nil, fmt.Errorf("%w: short snapshot chunk", ErrCorrupt)
		}
		t.pending = append(t.pending, storedChunk{d, rest[:n]})
		rest = rest[n:]
	}
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("%w: short snapshot", ErrCorrupt)
	}
	count = int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	for ; count > 0; count-- {
		rec, size, r, err := decodeInstance(rest)
		if err != nil {
			return nil, nil, err
		}
		if rec.Image, err = t.resolve(size, rec.Chunks); err != nil {
			return nil, nil, err
		}
		s.Instances = append(s.Instances, rec)
		rest = r
	}
	if len(t.pending) != 0 {
		return nil, nil, fmt.Errorf("%w: snapshot stores %d chunks no instance names", ErrCorrupt, len(t.pending))
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: trailing bytes in snapshot", ErrCorrupt)
	}
	return s, t, nil
}

// State is the replayed control-plane image: the instance table in
// carousel order plus the ID high-water mark. NextID is durable so a
// restarted Controller keeps distinguishing IDs it garbage-collected
// (gone) from IDs it never issued (unknown).
type State struct {
	NextID    uint64
	Order     []uint64
	Instances map[uint64]*InstanceRecord
}

// NewState returns an empty state (NextID 1, no instances).
func NewState() *State {
	return &State{NextID: 1, Instances: make(map[uint64]*InstanceRecord)}
}

// Empty reports whether the state records nothing durable.
func (s *State) Empty() bool {
	return s.NextID <= 1 && len(s.Instances) == 0
}

// Apply folds one record into the state, which keeps the record's Image
// and Chunks rather than copies. Apply is idempotent: records
// carry absolute values, creates below the ID high-water mark are
// replays and are skipped, and destroy/gc on already-destroyed/absent
// instances are no-ops — so replaying a journal twice yields the same
// state as replaying it once.
func (s *State) Apply(r Record) {
	switch r.Op {
	case OpCreate:
		if r.Inst.ID < s.NextID {
			return // replayed create of an ID already accounted for
		}
		rec := r.Inst
		s.Instances[rec.ID] = &rec
		s.Order = append(s.Order, rec.ID)
		s.NextID = rec.ID + 1
	case OpResize:
		if st, ok := s.Instances[r.Inst.ID]; ok && !st.Destroyed {
			st.Target = r.Inst.Target
		}
	case OpRecompose:
		if st, ok := s.Instances[r.Inst.ID]; ok && !st.Destroyed {
			st.Seq = r.Inst.Seq
			st.Wakeups = r.Inst.Wakeups
			st.Probability = r.Inst.Probability
			if len(r.Inst.Image) > 0 {
				st.Image, st.Chunks = r.Inst.Image, r.Inst.Chunks
			}
		}
	case OpDestroy:
		if st, ok := s.Instances[r.Inst.ID]; ok && !st.Destroyed {
			st.Destroyed = true
			st.Seq = r.Inst.Seq
			st.Resets = r.Inst.Resets
			st.ResetTicks = r.Inst.ResetTicks
		}
	case OpGC:
		if st, ok := s.Instances[r.Inst.ID]; ok && st.Destroyed {
			delete(s.Instances, r.Inst.ID)
			for i, id := range s.Order {
				if id == r.Inst.ID {
					s.Order = append(s.Order[:i], s.Order[i+1:]...)
					break
				}
			}
		}
	}
}

// Replay folds a snapshot and a journal into a State. A nil snapshot
// starts from empty.
func Replay(snap *Snapshot, recs []Record) *State {
	s := NewState()
	if snap != nil {
		if snap.NextID > s.NextID {
			s.NextID = snap.NextID
		}
		for i := range snap.Instances {
			rec := snap.Instances[i]
			s.Instances[rec.ID] = &rec
			s.Order = append(s.Order, rec.ID)
			if rec.ID >= s.NextID {
				s.NextID = rec.ID + 1
			}
		}
	}
	for _, r := range recs {
		s.Apply(r)
	}
	return s
}

// Snapshot renders the state back into a compact snapshot, preserving
// carousel order — the deterministic fixed point the property tests
// pivot on: Replay(x.Snapshot(), nil).Snapshot() == x.Snapshot().
func (s *State) Snapshot() *Snapshot {
	out := &Snapshot{NextID: s.NextID}
	for _, id := range s.Order {
		if rec, ok := s.Instances[id]; ok {
			out.Instances = append(out.Instances, *rec)
		}
	}
	return out
}
