package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
)

func randInstance(rng *rand.Rand, id uint64) InstanceRecord {
	img := make([]byte, rng.Intn(2048))
	rng.Read(img)
	return InstanceRecord{
		ID:              id,
		Seq:             rng.Uint32(),
		Wakeups:         rng.Uint32(),
		Resets:          rng.Uint32(),
		Probability:     rng.Float64(),
		Destroyed:       rng.Intn(2) == 0,
		ResetTicks:      int32(rng.Intn(10) - 2),
		Target:          int32(rng.Intn(1000)),
		HeartbeatPeriod: time.Duration(rng.Intn(1e9)),
		Lifetime:        time.Duration(rng.Intn(1e12)),
		Requirements: instance.Requirements{
			Class: instance.ClassSTB, MinMemMB: uint32(rng.Intn(1 << 16)), MinCPUScore: uint32(rng.Intn(1 << 16)),
		},
		ImageFile: "image." + string(rune('a'+rng.Intn(26))),
		Image:     img,
		Chunks:    appimage.ChunkDigests(nil, img),
	}
}

func randRecord(rng *rand.Rand, id uint64) Record {
	op := Op(1 + rng.Intn(5))
	r := Record{Op: op}
	switch op {
	case OpCreate:
		r.Inst = randInstance(rng, id)
	case OpResize:
		r.Inst = InstanceRecord{ID: id, Target: int32(rng.Intn(1000))}
	case OpRecompose:
		r.Inst = InstanceRecord{ID: id, Seq: rng.Uint32(), Wakeups: rng.Uint32(), Probability: rng.Float64()}
		if rng.Intn(2) == 0 { // an image replacement, not a sequence bump
			r.Inst.Image = make([]byte, 1+rng.Intn(2048))
			rng.Read(r.Inst.Image)
			r.Inst.Chunks = appimage.ChunkDigests(nil, r.Inst.Image)
		}
	case OpDestroy:
		r.Inst = InstanceRecord{ID: id, Seq: rng.Uint32(), Resets: rng.Uint32(), ResetTicks: int32(rng.Intn(10))}
	case OpGC:
		r.Inst = InstanceRecord{ID: id}
	}
	return r
}

// Property: encode→decode over a random journal is the identity.
func TestJournalRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var recs []Record
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			recs = append(recs, randRecord(rng, uint64(1+rng.Intn(8))))
		}
		gen := rng.Uint64()
		b, err := encodeJournal(gen, recs)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		gotGen, got, err := DecodeJournal(b)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if gotGen != gen {
			t.Fatalf("trial %d: generation %d round-tripped to %d", trial, gen, gotGen)
		}
		if len(got) != len(recs) {
			t.Fatalf("trial %d: %d records round-tripped to %d", trial, len(recs), len(got))
		}
		for i := range recs {
			if !reflect.DeepEqual(normalize(recs[i]), normalize(got[i])) {
				t.Fatalf("trial %d record %d: %+v != %+v", trial, i, recs[i], got[i])
			}
		}
	}
}

// normalize maps a nil image to an empty one (Decode always allocates).
func normalize(r Record) Record {
	if r.Inst.Image == nil {
		r.Inst.Image = []byte{}
	}
	return r
}

// Property: replaying a journal twice yields the same state as once —
// the idempotence that makes a compaction crash window safe (journal
// records re-apply on top of the snapshot that already contains them).
func TestReplayIdempotenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		// Generate a journal shaped exactly like the Controller's: per
		// instance the record order respects the lifecycle state machine
		// (create → resize/recompose* → destroy → gc). Idempotence is a
		// property of such journals — an out-of-order gc (before its
		// destroy) would be a no-op on first replay yet effective on the
		// second, but the Controller can never write one.
		var recs []Record
		var live, destroyed []uint64
		nextID := uint64(1)
		for i := 0; i < 30; i++ {
			var r Record
			switch {
			case len(live)+len(destroyed) == 0 || rng.Intn(4) == 0:
				r = Record{Op: OpCreate, Inst: randInstance(rng, nextID)}
				r.Inst.Destroyed = false
				live = append(live, nextID)
				nextID++
			case len(destroyed) > 0 && rng.Intn(3) == 0:
				k := rng.Intn(len(destroyed))
				r = Record{Op: OpGC, Inst: InstanceRecord{ID: destroyed[k]}}
				destroyed = append(destroyed[:k], destroyed[k+1:]...)
			case len(live) > 0:
				k := rng.Intn(len(live))
				id := live[k]
				switch rng.Intn(3) {
				case 0:
					r = Record{Op: OpResize, Inst: InstanceRecord{ID: id, Target: int32(rng.Intn(1000))}}
				case 1:
					r = Record{Op: OpRecompose, Inst: InstanceRecord{ID: id, Seq: rng.Uint32(), Wakeups: rng.Uint32(), Probability: rng.Float64()}}
				default:
					r = Record{Op: OpDestroy, Inst: InstanceRecord{ID: id, Seq: rng.Uint32(), Resets: rng.Uint32(), ResetTicks: int32(rng.Intn(10))}}
					live = append(live[:k], live[k+1:]...)
					destroyed = append(destroyed, id)
				}
			default:
				r = Record{Op: OpCreate, Inst: randInstance(rng, nextID)}
				r.Inst.Destroyed = false
				live = append(live, nextID)
				nextID++
			}
			recs = append(recs, r)
		}
		once := Replay(nil, recs)
		twice := Replay(nil, append(append([]Record{}, recs...), recs...))
		s1, _, err := encodeSnapshot(once.Snapshot())
		if err != nil {
			t.Fatalf("trial %d: snapshot once: %v", trial, err)
		}
		s2, _, err := encodeSnapshot(twice.Snapshot())
		if err != nil {
			t.Fatalf("trial %d: snapshot twice: %v", trial, err)
		}
		if string(s1) != string(s2) {
			t.Fatalf("trial %d: double replay diverged", trial)
		}
		// And the snapshot is a fixed point of replay.
		again := Replay(once.Snapshot(), nil)
		s3, _, err := encodeSnapshot(again.Snapshot())
		if err != nil {
			t.Fatalf("trial %d: snapshot again: %v", trial, err)
		}
		if string(s1) != string(s3) {
			t.Fatalf("trial %d: snapshot not a replay fixed point", trial)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	snap := &Snapshot{Gen: 7, NextID: 42}
	for i := 0; i < 5; i++ {
		snap.Instances = append(snap.Instances, randInstance(rng, uint64(i+1)))
	}
	b, _, err := encodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != snap.Gen || got.NextID != snap.NextID || len(got.Instances) != len(snap.Instances) {
		t.Fatalf("snapshot header round-trip: %+v", got)
	}
	for i := range snap.Instances {
		if !reflect.DeepEqual(snap.Instances[i], got.Instances[i]) {
			t.Fatalf("instance %d: %+v != %+v", i, snap.Instances[i], got.Instances[i])
		}
	}
}

func TestCorruptJournalTypedErrors(t *testing.T) {
	recs := []Record{
		{Op: OpCreate, Inst: randInstance(rand.New(rand.NewSource(5)), 1)},
		{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 9}},
	}
	good, err := encodeJournal(0, recs)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated tail", func(t *testing.T) {
		for cut := 1; cut < 12; cut++ {
			_, _, err := DecodeJournal(good[:len(good)-cut])
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut %d: ErrTruncated must wrap ErrCorrupt", cut)
			}
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-10] ^= 0x40
		if _, _, err := DecodeJournal(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, _, err := DecodeJournal(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[4] = 99
		if _, _, err := DecodeJournal(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty is valid", func(t *testing.T) {
		if _, recs, err := DecodeJournal(nil); err != nil || len(recs) != 0 {
			t.Fatalf("empty journal: %v, %d records", err, len(recs))
		}
	})
	t.Run("corrupt snapshot", func(t *testing.T) {
		snap, _, err := encodeSnapshot(&Snapshot{NextID: 3})
		if err != nil {
			t.Fatal(err)
		}
		snap[len(snap)-1] ^= 1
		if _, _, err := decodeSnapshot(snap); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestApplySemantics(t *testing.T) {
	img := InstanceRecord{ID: 1, Seq: 1, Wakeups: 1, Probability: 0.5, Target: 4, ImageFile: "image.1", Image: []byte{1, 2}}
	s := NewState()

	s.Apply(Record{Op: OpCreate, Inst: img})
	if s.NextID != 2 || len(s.Instances) != 1 {
		t.Fatalf("after create: nextID=%d instances=%d", s.NextID, len(s.Instances))
	}
	// Replayed create of a known ID is a no-op (IDs are never reused).
	mut := img
	mut.Target = 99
	s.Apply(Record{Op: OpCreate, Inst: mut})
	if s.Instances[1].Target != 4 {
		t.Fatal("replayed create mutated state")
	}
	// Ops on unknown IDs are no-ops.
	s.Apply(Record{Op: OpResize, Inst: InstanceRecord{ID: 7, Target: 3}})
	s.Apply(Record{Op: OpGC, Inst: InstanceRecord{ID: 7}})
	if len(s.Instances) != 1 {
		t.Fatal("unknown-id op mutated state")
	}
	s.Apply(Record{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 2}})
	if s.Instances[1].Target != 2 {
		t.Fatal("resize lost")
	}
	s.Apply(Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 5, Wakeups: 3, Probability: 0.25}})
	if st := s.Instances[1]; st.Seq != 5 || st.Wakeups != 3 || st.Probability != 0.25 {
		t.Fatalf("recompose: %+v", st)
	}
	// GC before destroy is a no-op; after destroy it removes.
	s.Apply(Record{Op: OpGC, Inst: InstanceRecord{ID: 1}})
	if len(s.Instances) != 1 {
		t.Fatal("gc removed a live instance")
	}
	s.Apply(Record{Op: OpDestroy, Inst: InstanceRecord{ID: 1, Seq: 6, Resets: 1, ResetTicks: 3}})
	if st := s.Instances[1]; !st.Destroyed || st.Seq != 6 || st.ResetTicks != 3 {
		t.Fatalf("destroy: %+v", st)
	}
	// Second destroy is a no-op.
	s.Apply(Record{Op: OpDestroy, Inst: InstanceRecord{ID: 1, Seq: 99}})
	if s.Instances[1].Seq != 6 {
		t.Fatal("double destroy mutated state")
	}
	s.Apply(Record{Op: OpGC, Inst: InstanceRecord{ID: 1}})
	if len(s.Instances) != 0 || len(s.Order) != 0 {
		t.Fatal("gc left residue")
	}
	if s.NextID != 2 {
		t.Fatal("gc must not lower the ID high-water mark")
	}
	if s.Empty() {
		t.Fatal("state with issued IDs must not report empty")
	}
}

// TestChunkFramingTypedErrors: the chunk-store grammar a strict decoder
// holds a journal and a snapshot to — chunk frames are exactly their
// record's first appearances of unstored digests, in slot order, each a
// slot's length — and the append-side checks that keep a store from
// writing anything else.
func TestChunkFramingTypedErrors(t *testing.T) {
	img := []byte("one short chunk")
	d := appimage.ChunkDigests(nil, img)[0]
	chunk := func(d appimage.Digest, data []byte) []byte {
		return appendFrame(nil, append(append([]byte{byte(opChunk)}, d[:]...), data...))
	}
	record := func(r Record) []byte {
		p, err := appendRecordPayload(nil, &r, []appimage.Digest{d})
		if err != nil {
			t.Fatal(err)
		}
		return appendFrame(nil, p)
	}
	create := Record{Op: OpCreate, Inst: InstanceRecord{ID: 1, ImageFile: "image.1", Image: img}}
	replace := Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Image: img}}
	journal := func(frames ...[]byte) []byte {
		b := journalHeader(0)
		for _, f := range frames {
			b = append(b, f...)
		}
		return b
	}
	other := appimage.Digest{9}
	for name, c := range map[string]struct {
		b         []byte
		truncated bool
	}{
		"chunks with no record after":    {journal(chunk(d, img)), true},
		"chunk its record does not name": {journal(chunk(d, img), chunk(other, img), record(create)), false},
		"chunk stored twice":             {journal(chunk(d, img), record(create), chunk(d, img), record(replace)), false},
		"chunk before a resize":          {journal(chunk(d, img), record(Record{Op: OpResize, Inst: InstanceRecord{ID: 1}})), false},
		"chunk of the wrong length":      {journal(chunk(d, img[1:]), record(create)), false},
		"manifest naming nothing stored": {journal(record(replace)), false},
		"short chunk frame":              {journal(appendFrame(nil, []byte{byte(opChunk), 1, 2})), false},
		"empty recompose manifest":       {journal(appendFrame(nil, append(record(Record{Op: OpRecompose})[4:4+25], 0, 0, 0, 0))), false},
		"manifest short of its digests":  {journal(appendFrame(nil, append(record(Record{Op: OpRecompose})[4:4+25], 0, 0, 0, 9))), false},
	} {
		_, _, err := DecodeJournal(c.b)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) != c.truncated {
			t.Errorf("%s: err = %v, want ErrCorrupt (truncated: %v)", name, err, c.truncated)
		}
	}

	// A snapshot's chunk table obeys the same rule over all its instances.
	snap, _, err := encodeSnapshot(&Snapshot{NextID: 2, Instances: []InstanceRecord{create.Inst}})
	if err != nil {
		t.Fatal(err)
	}
	seal := func(body []byte) []byte {
		return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	}
	chunkTableEnd := 25 + digestLen + 4 + len(img)
	for name, b := range map[string][]byte{
		// The instances cut: the stored chunk is named by none.
		"stored chunk no instance names": seal(append(slices.Clone(snap[:chunkTableEnd]), 0, 0, 0, 0)),
		"truncated chunk table":          seal(slices.Clone(snap[:32])),
	} {
		if _, _, err := decodeSnapshot(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// Append refuses a digest list that does not fit the image, and a
	// refused record stores nothing: the next append of the same image
	// still writes its chunk.
	s := openTestStore(t, t.TempDir(), Options{})
	if _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	bad := create
	bad.Inst.Chunks = []appimage.Digest{d, d}
	if err := s.Append(bad); err == nil {
		t.Fatal("append with two digests for a one-chunk image succeeded")
	}
	if err := s.Append(create); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Load(); err != nil || !bytes.Equal(st.Instances[1].Image, img) {
		t.Fatalf("after a refused append: %v", err)
	}
}
