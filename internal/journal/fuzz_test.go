package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"oddci/internal/appimage"
)

// imageSeed is an image of two identical whole chunks and a short tail:
// a seed whose chunk frames (or snapshot chunk table) store a repeated
// chunk once.
func imageSeed(rec InstanceRecord) InstanceRecord {
	rec.Image = chunkyImage([]byte{7, 7}, 33)
	rec.Chunks = appimage.ChunkDigests(nil, rec.Image)
	return rec
}

// checkManifests fails t if an accepted image is short of its manifest.
func checkManifests(t *testing.T, recs []InstanceRecord) {
	for _, r := range recs {
		if len(r.Chunks) != appimage.ChunkCount(len(r.Image)) {
			t.Fatalf("instance %d: %d-byte image under %d chunk digests", r.ID, len(r.Image), len(r.Chunks))
		}
	}
}

// FuzzDecodeJournal hammers the strict decoder: arbitrary bytes must
// either decode cleanly or fail with the typed ErrCorrupt/ErrTruncated
// — never panic, never yield an image short of its manifest, and never
// accept a journal that does not re-encode to the same bytes (chunk
// frames included: each stored once, right before the first record that
// names it). An empty input is an absent journal, which re-encodes to a
// bare header.
func FuzzDecodeJournal(f *testing.F) {
	// Seed corpus: empty, header-only, a real journal with chunk frames
	// and manifests, and mutations of it (committed under testdata/fuzz
	// for `go test -fuzz` runs).
	f.Add([]byte{})
	f.Add(journalHeader(0))
	rng := rand.New(rand.NewSource(1))
	good, err := encodeJournal(3, []Record{
		{Op: OpCreate, Inst: randInstance(rng, 1)},
		{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 7}},
		{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Wakeups: 2, Probability: 0.5}},
		{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 3, Wakeups: 3, Probability: 0.5, Image: []byte("a new image")}},
		{Op: OpCreate, Inst: InstanceRecord{ID: 2, ImageFile: "image.2", Image: []byte("a new image")}}, // no chunk frame: held
		{Op: OpDestroy, Inst: InstanceRecord{ID: 1, Seq: 4, Resets: 1, ResetTicks: 3}},
		{Op: OpGC, Inst: InstanceRecord{ID: 1}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte{}, good...), 0, 0, 0))
	// A manifest alone: its chunk frames cut away.
	small, err := encodeJournal(0, []Record{{Op: OpCreate, Inst: randInstance(rng, 1)}})
	if err != nil {
		f.Fatal(err)
	}
	chunkFrame := 8 + int(binary.BigEndian.Uint32(small[journalHeaderLen:]))
	f.Add(append(journalHeader(0), small[journalHeaderLen+chunkFrame:]...))
	// A repeated whole chunk, stored once (large: a seed, not a fuzzing
	// start point worth mutating for long).
	repeated, err := encodeJournal(0, []Record{{Op: OpCreate, Inst: imageSeed(randInstance(rng, 1))}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(repeated)
	for _, seed := range [][]byte{good, repeated} {
		if _, _, err := DecodeJournal(seed); err != nil {
			f.Fatalf("seed journal does not decode: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		gen, recs, err := DecodeJournal(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		insts := make([]InstanceRecord, 0, len(recs))
		for _, r := range recs {
			if hasImage(&r) || r.Inst.Chunks != nil {
				insts = append(insts, r.Inst)
			}
		}
		checkManifests(t, insts)
		re, err := encodeJournal(gen, recs)
		if err != nil {
			t.Fatalf("decoded journal does not re-encode: %v", err)
		}
		if len(data) > 0 && !bytes.Equal(re, data) {
			t.Fatalf("accepted journal re-encodes to other bytes (%d vs %d)", len(re), len(data))
		}
		// Replay must not panic on any decodable journal.
		Replay(nil, recs)
	})
}

// FuzzDecodeSnapshot is the snapshot-side twin: its chunk table stores
// each distinct chunk once, in order of first appearance, and every
// accepted snapshot re-encodes to the same bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	first := imageSeed(randInstance(rng, 1))
	second := randInstance(rng, 2)
	second.Image = append(appimage.Chunk(first.Image, 0), second.Image...) // shares chunk 0
	second.Chunks = appimage.ChunkDigests(nil, second.Image)
	snap, _, err := encodeSnapshot(&Snapshot{
		Gen:       4,
		NextID:    3,
		Instances: []InstanceRecord{first, second},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)-5])
	f.Add([]byte{})
	empty, _, err := encodeSnapshot(&Snapshot{NextID: 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	if _, _, err := decodeSnapshot(snap); err != nil {
		f.Fatalf("seed snapshot does not decode: %v", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		checkManifests(t, s.Instances)
		re, _, err := encodeSnapshot(s)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted snapshot re-encodes to other bytes (%d vs %d)", len(re), len(data))
		}
		Replay(s, nil)
	})
}
