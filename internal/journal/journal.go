// Package journal is the Controller's durability layer: one
// append-only file of lifecycle mutations (create / resize / recompose /
// destroy / gc) covering control-plane state (instances, wanted sizes,
// sequence counters, reset-retransmission windows). A crashed
// coordinator folds the file to recover exactly the instances it was
// maintaining, so the broadcast channel's O(1) staging advantage is not
// forfeited to an O(N) re-stage after every restart.
//
// The design splits cleanly in two:
//
//   - the codec and fold state machine (this file): deterministic
//     binary encodings with CRC-32 framing, and a State that applies
//     Records idempotently — folding the same journal twice yields the
//     same State, and two independent folds of the same bytes re-encode
//     to byte-identical files;
//   - the file Store (store.go): fsync'd appends to the one state file,
//     and compaction, which writes the folded state as a journal of its
//     own (a header naming the ID high-water mark, then one create per
//     instance) and renames it over the file. Every crash state is a
//     byte prefix of the file or one side of that rename.
//
// Images are stored by chunk, under the same digests the TCP image
// plane names: one digest tree. A record carries its image as a
// manifest, the image's size and the SHA-256 of each of its
// appimage.ChunkBytes chunks (the list appimage.RootOf roots), and a
// chunk's bytes are written once, just before the first record that
// names them, unless an earlier frame already holds them. So an update
// that changes two chunks of an image appends those two chunks and a
// manifest, not the image; and a compacted file holds each distinct
// chunk of the live images once.
//
// What is deliberately NOT journaled: instance membership, node state,
// and heartbeat back-pressure tuning. All of it is reconstructed from
// the next round of heartbeats after a restart — the PNAs are the
// authoritative source of their own state, exactly as §3.2 consolidates
// it in steady state.
package journal

import (
	"bytes"
	"crypto/sha256"
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
	// ErrCorrupt reports a journal whose header, framing, checksum, or
	// field encoding is invalid, or whose codec version is not this one.
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrTruncated reports a journal cut short: its header, or its final
	// frame, runs past the end of the file, or chunk frames have no
	// record after them (a torn append). It wraps ErrCorrupt.
	// DecodeJournal fails on it; Store.Load folds up to the last whole
	// record.
	ErrTruncated = fmt.Errorf("%w: truncated tail", ErrCorrupt)
)

// Op classifies one journaled lifecycle mutation.
type Op uint8

// Journal operations: the Controller's lifecycle mutations, one op each.
// OpRecompose covers both an image replacement (Controller.Recompose)
// and a maintenance recomposition, a sequence bump with a new
// probability and no image.
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
// heartbeats (membership, trim progress, resets sent in heartbeat
// replies, back-pressure periods).
type InstanceRecord struct {
	ID      uint64
	Seq     uint32
	Wakeups uint32
	// Resets counts the journaled resets: the destroy's.
	Resets uint32
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

// Record is one journal entry, and one Controller mutation: the
// Controller appends it and then folds it into its table with
// State.Apply, the fold replay runs, so its live table and a recovered
// one are the same. Inst carries the full record for OpCreate; the other
// ops use only the fields they mutate (ID always, plus
// Seq/Wakeups/Probability — and, for image replacements, Image and
// Chunks — for recompose, Seq/Resets/ResetTicks for destroy, Target for
// resize). Fields are absolute values, never deltas, which is what makes
// replay idempotent.
type Record struct {
	Op   Op
	Inst InstanceRecord
}

// journalMagic and codecVersion open every state file. Version 3 keeps
// the whole state dir in the one file; version 1 (images whole in their
// records) and version 2 (a snapshot file beside the journal, tied to it
// by a generation) are refused with the version error and not migrated.
var journalMagic = [4]byte{'O', 'J', 'N', 'L'}

const codecVersion = 3

// journalHeader is the fixed prefix of a journal file: magic(4) |
// version(1) | nextID(8), nextID being the ID high-water mark when the
// file was written: what a compaction folded in, IDs it garbage-collected
// included.
func journalHeader(nextID uint64) []byte {
	b := append(journalMagic[:], codecVersion)
	return binary.BigEndian.AppendUint64(b, nextID)
}

const journalHeaderLen = 13

// parseJournalHeader checks a journal file's header and returns the ID
// high-water mark it names and the frames after it. A file shorter than
// a header whose bytes begin one is ErrTruncated: a first append torn
// before its header was whole.
func parseJournalHeader(b []byte) (nextID uint64, frames []byte, err error) {
	if !bytes.HasPrefix(journalMagic[:], b[:min(len(b), 4)]) {
		return 0, nil, fmt.Errorf("%w: bad journal header", ErrCorrupt)
	}
	if len(b) > 4 && b[4] != codecVersion {
		return 0, nil, fmt.Errorf("%w: journal version %d (want %d)", ErrCorrupt, b[4], codecVersion)
	}
	if len(b) < journalHeaderLen {
		return 0, nil, fmt.Errorf("%w: short journal header", ErrTruncated)
	}
	return binary.BigEndian.Uint64(b[5:]), b[journalHeaderLen:], nil
}

// opChunk tags a chunk frame: one stored chunk, digest(32) | bytes. It
// is a frame of the journal file, not a Record's op: a chunk frame
// precedes the first record whose manifest names it.
const opChunk Op = 6

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
	return appimage.AppendManifest(b, len(r.Image), chunks), nil
}

// decodeInstance parses an instance record whose image is still a
// manifest: size and chunks, for a chunkTable to resolve.
func decodeInstance(b []byte) (r InstanceRecord, size int, err error) {
	const fixed = 8 + 4 + 4 + 4 + 8 + 1 + 4 + 4 + 8 + 8
	if len(b) < fixed {
		return r, 0, fmt.Errorf("%w: short instance record", ErrCorrupt)
	}
	r = InstanceRecord{
		ID:      binary.BigEndian.Uint64(b),
		Seq:     binary.BigEndian.Uint32(b[8:]),
		Wakeups: binary.BigEndian.Uint32(b[12:]),
		Resets:  binary.BigEndian.Uint32(b[16:]),
	}
	r.Probability = math.Float64frombits(binary.BigEndian.Uint64(b[20:]))
	if r.Probability < 0 || r.Probability > 1 || math.IsNaN(r.Probability) {
		return r, 0, fmt.Errorf("%w: probability out of range", ErrCorrupt)
	}
	flags := b[28]
	if flags&^byte(1) != 0 {
		return r, 0, fmt.Errorf("%w: unknown instance flags %#x", ErrCorrupt, flags)
	}
	r.Destroyed = flags&1 != 0
	r.ResetTicks = int32(binary.BigEndian.Uint32(b[29:]))
	r.Target = int32(binary.BigEndian.Uint32(b[33:]))
	r.HeartbeatPeriod = time.Duration(binary.BigEndian.Uint64(b[37:]))
	r.Lifetime = time.Duration(binary.BigEndian.Uint64(b[45:]))
	if r.HeartbeatPeriod < 0 || r.Lifetime < 0 {
		return r, 0, fmt.Errorf("%w: negative durations", ErrCorrupt)
	}
	r.Requirements, b, err = instance.DecodeRequirements(b[53:])
	if err != nil {
		return r, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(b) < 1 {
		return r, 0, fmt.Errorf("%w: missing image name", ErrCorrupt)
	}
	nameLen := int(b[0])
	b = b[1:]
	if len(b) < nameLen {
		return r, 0, fmt.Errorf("%w: short image name", ErrCorrupt)
	}
	r.ImageFile = string(b[:nameLen])
	if size, r.Chunks, err = appimage.DecodeManifest(b[nameLen:]); err != nil {
		return r, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, size, nil
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
			b = appimage.AppendManifest(b, len(r.Inst.Image), chunks)
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
		if r.Inst, size, err = decodeInstance(b); err != nil {
			return r, 0, err
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
		if manifest := b[24:]; len(manifest) > 0 {
			if size, r.Inst.Chunks, err = appimage.DecodeManifest(manifest); err != nil {
				return r, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if size == 0 {
				return r, 0, fmt.Errorf("%w: recompose manifest of an empty image", ErrCorrupt)
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
	payload, err := appendRecordPayload(make([]byte, 0, 128+len(r.Inst.ImageFile)+len(chunks)*sha256.Size), &r, chunks)
	if err != nil {
		return nil, err
	}
	need := len(payload) + 8
	for i, d := range chunks {
		if _, ok := held[d]; !ok {
			need += 8 + 1 + sha256.Size + len(appimage.Chunk(r.Inst.Image, i))
		}
	}
	b = slices.Grow(b, need)
	for i, d := range chunks {
		if _, ok := held[d]; ok {
			continue
		}
		held[d] = struct{}{}
		data := appimage.Chunk(r.Inst.Image, i)
		b = binary.BigEndian.AppendUint32(b, uint32(1+sha256.Size+len(data)))
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

// encodeJournal renders a whole journal file: the header naming nextID,
// then recs' frames, each chunk's bytes once, before the first record
// that names it. It returns the digests of the chunks it stores.
// DecodeJournal inverts it byte for byte.
func encodeJournal(nextID uint64, recs []Record) ([]byte, map[appimage.Digest]struct{}, error) {
	b := journalHeader(nextID)
	held := make(map[appimage.Digest]struct{})
	for _, r := range recs {
		var err error
		if b, err = appendRecordFrames(b, r, held); err != nil {
			return nil, nil, err
		}
	}
	return b, held, nil
}

// encodeState renders st as the journal a compaction writes: a header
// naming st.NextID, then one create per instance, in carousel order,
// destroyed and not yet collected ones included.
func encodeState(st *State) ([]byte, map[appimage.Digest]struct{}, error) {
	recs := make([]Record, 0, len(st.Order))
	for _, id := range st.Order {
		if rec, ok := st.Instances[id]; ok {
			recs = append(recs, Record{Op: OpCreate, Inst: *rec})
		}
	}
	return encodeJournal(st.NextID, recs)
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
				return nil, fmt.Errorf("%w: manifest names chunk %x, which no earlier frame stores", ErrCorrupt, d[:8])
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

// DecodeJournal parses a journal file strictly, returning the ID
// high-water mark its header names and its records: a bad header, a
// record whose checksum or encoding is invalid, or a manifest naming a
// chunk no earlier frame stores (ErrCorrupt), or a torn tail
// (ErrTruncated) fails the whole decode — no partial state escapes. An
// empty file is an empty journal.
func DecodeJournal(b []byte) (nextID uint64, recs []Record, err error) {
	if len(b) == 0 {
		return 0, nil, nil
	}
	nextID, frames, err := parseJournalHeader(b)
	if err != nil {
		return 0, nil, err
	}
	if err := decodeJournal(frames, newChunkTable(), func(r Record, _ int) { recs = append(recs, r) }); err != nil {
		return 0, nil, err
	}
	return nextID, recs, nil
}

// decodeJournal decodes a journal's frames (b, past its header) into t,
// handing each record to apply as it decodes, with the offset in b just
// past its frame, so a fold holds one rebuilt image per instance, not
// one per record. A torn tail is ErrTruncated after every whole record
// before it has been applied.
func decodeJournal(b []byte, t *chunkTable, apply func(r Record, end int)) error {
	total := len(b)
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
			if len(payload) < 1+sha256.Size {
				return fmt.Errorf("%w: short chunk frame", ErrCorrupt)
			}
			t.pending = append(t.pending, storedChunk{appimage.Digest(payload[1:]), payload[1+sha256.Size:]})
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
		apply(r, total-len(b))
	}
	if len(t.pending) != 0 {
		return ErrTruncated // chunks whose record never landed: a torn append
	}
	return nil
}

// State is the folded control-plane image: the instance table in
// carousel order plus the ID high-water mark. NextID is durable so a
// restarted Controller keeps distinguishing IDs it garbage-collected
// (gone) from IDs it never issued (unknown); a compacted file's header
// keeps it when the highest IDs were collected.
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
// instances are no-ops — so folding a journal twice yields the same
// state as folding it once.
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
