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
// a seed whose chunk frames store a repeated chunk once.
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
	// and manifests, mutations of it, and a compacted file (committed
	// under testdata/fuzz for `go test -fuzz` runs).
	f.Add([]byte{})
	f.Add(journalHeader(1))
	rng := rand.New(rand.NewSource(1))
	good, _, err := encodeJournal(3, []Record{
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
	small, _, err := encodeJournal(1, []Record{{Op: OpCreate, Inst: randInstance(rng, 1)}})
	if err != nil {
		f.Fatal(err)
	}
	chunkFrame := 8 + int(binary.BigEndian.Uint32(small[journalHeaderLen:]))
	f.Add(append(journalHeader(1), small[journalHeaderLen+chunkFrame:]...))
	// A repeated whole chunk, stored once (large: a seed, not a fuzzing
	// start point worth mutating for long).
	repeated, _, err := encodeJournal(1, []Record{{Op: OpCreate, Inst: imageSeed(randInstance(rng, 1))}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(repeated)
	// A compacted file: two instances sharing a chunk, a destroyed one
	// not yet collected, and a header nextID above the last live ID (the
	// highest was collected before the compaction).
	st := NewState()
	first := imageSeed(liveInstance(rng, 1))
	second := liveInstance(rng, 2)
	second.Image = append(appimage.Chunk(first.Image, 0), second.Image...)
	second.Chunks = appimage.ChunkDigests(nil, second.Image)
	for _, r := range []Record{
		{Op: OpCreate, Inst: first},
		{Op: OpCreate, Inst: second},
		{Op: OpCreate, Inst: liveInstance(rng, 3)},
		{Op: OpCreate, Inst: liveInstance(rng, 4)},
		{Op: OpDestroy, Inst: InstanceRecord{ID: 3, Seq: 2, Resets: 1, ResetTicks: 4}},
		{Op: OpDestroy, Inst: InstanceRecord{ID: 4, Seq: 2, Resets: 1, ResetTicks: 4}},
		{Op: OpGC, Inst: InstanceRecord{ID: 4}},
	} {
		st.Apply(r)
	}
	compact, _, err := encodeState(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compact)
	for _, seed := range [][]byte{good, repeated, compact} {
		if _, _, err := DecodeJournal(seed); err != nil {
			f.Fatalf("seed journal does not decode: %v", err)
		}
	}
	nextID, recs, _ := DecodeJournal(compact)
	folded := foldRecords(nextID, recs)
	if re, _, err := encodeState(folded); err != nil || !bytes.Equal(re, compact) || nextID != 5 || !folded.Instances[3].Destroyed {
		f.Fatalf("compacted seed (nextID %d) does not fold and re-encode to itself: %v", nextID, err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		nextID, recs, err := DecodeJournal(data)
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
		re, _, err := encodeJournal(nextID, recs)
		if err != nil {
			t.Fatalf("decoded journal does not re-encode: %v", err)
		}
		if len(data) > 0 && !bytes.Equal(re, data) {
			t.Fatalf("accepted journal re-encodes to other bytes (%d vs %d)", len(re), len(data))
		}
		// Folding must not panic on any decodable journal.
		foldRecords(nextID, recs)
	})
}
