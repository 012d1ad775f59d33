package journal

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/obs"
	"oddci/internal/simtime"
)

// liveInstance is randInstance constrained to a non-destroyed record,
// so later resize/recompose ops against it actually apply.
func liveInstance(rng *rand.Rand, id uint64) InstanceRecord {
	rec := randInstance(rng, id)
	rec.Destroyed = false
	return rec
}

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.NoSync = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// loadedTestStore is openTestStore after Load, as every caller appends:
// the Controller loads in recovery before it journals anything.
func loadedTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s := openTestStore(t, dir, opts)
	if _, err := s.Load(); err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	return s
}

func TestStoreAppendLoadAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	s := loadedTestStore(t, dir, Options{})

	want := []Record{
		{Op: OpCreate, Inst: liveInstance(rng, 1)},
		{Op: OpCreate, Inst: liveInstance(rng, 2)},
		{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 9}},
		{Op: OpDestroy, Inst: InstanceRecord{ID: 2, Seq: 4, Resets: 1, ResetTicks: 3}},
	}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Op, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTestStore(t, dir, Options{})
	st, err := s2.Load()
	if err != nil {
		t.Fatalf("Load after reopen: %v", err)
	}
	if st.NextID != 3 {
		t.Fatalf("NextID = %d, want 3", st.NextID)
	}
	if got := st.Instances[1].Target; got != 9 {
		t.Fatalf("instance 1 target = %d, want 9", got)
	}
	if !st.Instances[2].Destroyed {
		t.Fatal("instance 2 should be destroyed after replay")
	}
}

func TestStoreCompactionResetsJournal(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	s := loadedTestStore(t, dir, Options{CompactEvery: 3})

	for id := uint64(1); id <= 3; id++ {
		if err := s.Append(Record{Op: OpCreate, Inst: liveInstance(rng, id)}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.NeedsCompaction() {
		t.Fatal("3 records with CompactEvery=3 should arm compaction")
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(st); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.NeedsCompaction() {
		t.Fatal("compaction should reset the record count")
	}
	jb, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jb, journalHeader(1)) {
		t.Fatalf("journal is %x after compaction, want a bare header for generation 1", jb)
	}

	// Post-compaction appends coexist with the snapshot.
	if err := s.Append(Record{Op: OpResize, Inst: InstanceRecord{ID: 2, Target: 5}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestStore(t, dir, Options{})
	st2, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Order) != 3 || st2.Instances[2].Target != 5 {
		t.Fatalf("snapshot+journal replay wrong: order=%v target=%d", st2.Order, st2.Instances[2].Target)
	}
}

func TestStoreLoadTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	s := loadedTestStore(t, dir, Options{})
	if err := s.Append(Record{Op: OpCreate, Inst: liveInstance(rng, 1)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, journalFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, Options{})
	if _, err := s2.Load(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Load on cut tail = %v, want ErrTruncated", err)
	}
}

func TestStoreHealthAndMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(10))
	s := loadedTestStore(t, dir, Options{Obs: reg})

	if err := reg.Health()["journal-stalled"]; err != nil {
		t.Fatalf("fresh store health = %v, want ok", err)
	}
	if err := s.Append(Record{Op: OpCreate, Inst: liveInstance(rng, 1)}); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Value("oddci_journal_appends_total"); !ok || v != 1 {
		t.Fatalf("appends counter = %v,%v, want 1", v, ok)
	}
	if v, ok := reg.Value("oddci_journal_records"); !ok || v != 1 {
		t.Fatalf("records gauge = %v,%v, want 1", v, ok)
	}
	if _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("oddci_journal_replayed_records_total"); v != 1 {
		t.Fatalf("replayed counter = %v, want 1", v)
	}

	// Closing the file out from under the store forces an append error,
	// which must latch into Err and the journal-stalled health check.
	s.f.Close()
	if err := s.Append(Record{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 2}}); err == nil {
		t.Fatal("append after file close should fail")
	}
	if s.Err() == nil {
		t.Fatal("Err() should latch the append failure")
	}
	if err := reg.Health()["journal-stalled"]; err == nil {
		t.Fatal("journal-stalled health check should fail after an append error")
	}
	if v, _ := reg.Value("oddci_journal_errors_total"); v != 1 {
		t.Fatalf("errors counter = %v, want 1", v)
	}
}

func TestStoreClosedAppendFails(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close = %v, want nil", err)
	}
	if err := s.Append(Record{Op: OpGC, Inst: InstanceRecord{ID: 1}}); err == nil {
		t.Fatal("append on closed store should fail")
	}
}

func TestLoadOrCreateKeyPersists(t *testing.T) {
	dir := t.TempDir()
	k1, err := LoadOrCreateKey(dir)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := LoadOrCreateKey(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !k1.Equal(k2) {
		t.Fatal("second load returned a different key")
	}
	if err := os.WriteFile(filepath.Join(dir, keyFile), []byte("short"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrCreateKey(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short key file = %v, want ErrCorrupt", err)
	}
}

// TestLoadFrozenClockDeterministicTelemetry pins the satellite fix for
// the host-clock leak in Load: replay timing must come from the
// injected simtime.Clock, so two replays of the same journal under a
// frozen sim clock render byte-identical telemetry (and a zero replay
// histogram). Before the fix, time.Now() stamped host wall time into
// oddci_journal_replay_seconds and no two replays matched.
func TestLoadFrozenClockDeterministicTelemetry(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	s := loadedTestStore(t, dir, Options{})
	for id := uint64(1); id <= 5; id++ {
		if err := s.Append(Record{Op: OpCreate, Inst: liveInstance(rng, id)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	render := func() string {
		clk := simtime.NewSim(time.Unix(1_000_000, 0)) // frozen: never advanced
		reg := obs.NewRegistry()
		st := openTestStore(t, dir, Options{Obs: reg, Clock: clk})
		if _, err := st.Load(); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if v, ok := reg.Value("oddci_journal_replay_seconds_sum"); ok && v != 0 {
			t.Fatalf("replay histogram sum = %v under a frozen clock, want 0 (host clock leaked)", v)
		}
		return reg.RenderPrometheus()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("telemetry differs across identical frozen-clock replays:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "oddci_journal_replayed_records_total 5") {
		t.Fatalf("replayed-records counter missing or wrong:\n%s", a)
	}
}

// chunkyImage is an encoded-image stand-in of whole appimage.ChunkBytes
// chunks plus a short tail, chunk i filled with byte pattern[i].
func chunkyImage(pattern []byte, tail int) []byte {
	img := make([]byte, 0, len(pattern)*appimage.ChunkBytes+tail)
	for _, p := range pattern {
		img = append(img, bytes.Repeat([]byte{p}, appimage.ChunkBytes)...)
	}
	return append(img, bytes.Repeat([]byte{0xEE}, tail)...)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRepeatedChunksStoredOnce: an image whose chunks repeat stores
// each distinct chunk once, in the journal and in the snapshot; a
// replacement that only reorders held chunks stores none; and both
// reload bit for bit.
func TestRepeatedChunksStoredOnce(t *testing.T) {
	dir := t.TempDir()
	s := loadedTestStore(t, dir, Options{})
	img := chunkyImage([]byte{1, 2, 1, 1}, 100) // chunks A B A A tail
	rec := liveInstance(rand.New(rand.NewSource(12)), 1)
	rec.Image, rec.Chunks = img, nil // the store hashes what the caller leaves out
	if err := s.Append(Record{Op: OpCreate, Inst: rec}); err != nil {
		t.Fatal(err)
	}
	const slack = 4 << 10 // header, frames and the record with its manifest
	jpath := filepath.Join(dir, journalFile)
	if n := fileSize(t, jpath); n > 2*appimage.ChunkBytes+100+slack {
		t.Fatalf("journal holds %d bytes for 3 distinct chunks (%d bytes)", n, 2*appimage.ChunkBytes+100)
	}
	swapped := chunkyImage([]byte{2, 1, 2, 1}, 100)
	before := fileSize(t, jpath)
	if err := s.Append(Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Wakeups: 2, Image: swapped}}); err != nil {
		t.Fatal(err)
	}
	if grew := fileSize(t, jpath) - before; grew > slack {
		t.Fatalf("a replacement of held chunks grew the journal by %d bytes", grew)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Instances[1]; !bytes.Equal(got.Image, swapped) || appimage.RootOf(len(got.Image), got.Chunks) != appimage.DigestOf(swapped) {
		t.Fatal("journal replay did not rebuild the replacement image bit for bit")
	}
	if err := s.Compact(st); err != nil {
		t.Fatal(err)
	}
	if n := fileSize(t, filepath.Join(dir, snapshotFile)); n > 2*appimage.ChunkBytes+100+slack {
		t.Fatalf("snapshot holds %d bytes for 3 distinct chunks", n)
	}
	st, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Instances[1].Image, swapped) {
		t.Fatal("snapshot did not rebuild the image bit for bit")
	}
}

// TestManifestNamingMissingChunkFailsLoad: a manifest naming a chunk
// that neither the snapshot nor an earlier frame stores fails Load with
// ErrCorrupt — no panic, and no short image — whether the chunk frame
// was cut out of the journal or the snapshot holding it is gone (which
// the journal's generation already tells).
func TestManifestNamingMissingChunkFailsLoad(t *testing.T) {
	img := chunkyImage([]byte{1, 2}, 10)
	rec := liveInstance(rand.New(rand.NewSource(13)), 1)
	rec.Image, rec.Chunks = img, appimage.ChunkDigests(nil, img)

	t.Run("chunk frame cut", func(t *testing.T) {
		dir := t.TempDir()
		s := loadedTestStore(t, dir, Options{})
		if err := s.Append(Record{Op: OpCreate, Inst: rec}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		path := filepath.Join(dir, journalFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Drop the second frame: chunk 2 of 3.
		first := journalHeaderLen + 8 + int(binary.BigEndian.Uint32(b[journalHeaderLen:]))
		second := first + 8 + int(binary.BigEndian.Uint32(b[first:]))
		if err := os.WriteFile(path, append(b[:first:first], b[second:]...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openTestStore(t, dir, Options{}).Load(); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) {
			t.Fatalf("Load = %v, want ErrCorrupt for a manifest naming an unstored chunk", err)
		}
	})
	t.Run("snapshot gone", func(t *testing.T) {
		dir := t.TempDir()
		s := loadedTestStore(t, dir, Options{})
		if err := s.Append(Record{Op: OpCreate, Inst: rec}); err != nil {
			t.Fatal(err)
		}
		st, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(st); err != nil {
			t.Fatal(err)
		}
		// The same image again: its manifest names only snapshot chunks.
		if err := s.Append(Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Wakeups: 2, Image: img}}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, err := openTestStore(t, dir, Options{}).Load(); err != nil {
			t.Fatalf("Load with the snapshot: %v", err)
		}
		if err := os.Remove(filepath.Join(dir, snapshotFile)); err != nil {
			t.Fatal(err)
		}
		if _, err := openTestStore(t, dir, Options{}).Load(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "generation 1") {
			t.Fatalf("Load = %v, want ErrCorrupt for a journal extending the lost snapshot", err)
		}
	})
	t.Run("bytes under another digest", func(t *testing.T) {
		// A chunk table is keyed by digest; Load checks the bytes it
		// rebuilds hash to them.
		dir := t.TempDir()
		s := loadedTestStore(t, dir, Options{})
		bad := rec
		bad.Chunks = slices.Clone(rec.Chunks)
		bad.Chunks[0][0] ^= 1
		if err := s.Append(Record{Op: OpCreate, Inst: bad}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Load = %v, want ErrCorrupt for chunks stored under wrong digests", err)
		}
	})
}

// TestVersion1StateDirRejected: a state dir from before images were
// stored by chunk is refused with the typed version error, not migrated.
func TestVersion1StateDirRejected(t *testing.T) {
	v1 := append(journalMagic[:], 1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openTestStore(t, dir, Options{}).Load(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "journal version 1") {
		t.Fatalf("Load of a version-1 journal = %v, want the version error", err)
	}
	snap, _, err := encodeSnapshot(&Snapshot{NextID: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap[4] = 1
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openTestStore(t, dir, Options{}).Load(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "snapshot version 1") {
		t.Fatalf("Load of a version-1 snapshot = %v, want the version error", err)
	}
}

// TestAppendNeedsLoad: a store does not know which chunks its directory
// stores until Load (or Compact) learns them, so it refuses to append
// before, on a fresh directory as on one that holds state.
func TestAppendNeedsLoad(t *testing.T) {
	dir := t.TempDir()
	rec := liveInstance(rand.New(rand.NewSource(14)), 1)
	s := openTestStore(t, dir, Options{})
	if err := s.Append(Record{Op: OpCreate, Inst: rec}); err == nil {
		t.Fatal("append before Load on a fresh dir succeeded")
	}
	s = loadedTestStore(t, dir, Options{})
	if err := s.Append(Record{Op: OpCreate, Inst: rec}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = openTestStore(t, dir, Options{})
	if err := s.Append(Record{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 3}}); err == nil {
		t.Fatal("append before Load on a recovered dir succeeded")
	}
	s = loadedTestStore(t, dir, Options{})
	if err := s.Append(Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Image: rec.Image}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st, err := openTestStore(t, dir, Options{}).Load()
	if err != nil || !bytes.Equal(st.Instances[1].Image, rec.Image) {
		t.Fatalf("reload after a re-air of held chunks: %v", err)
	}
}

// TestCompactIgnoresLeftoverTemp: a state.snap.tmp left by a compaction
// interrupted before its rename is ignored by Load and replaced by the
// next Compact, which fsyncs the temp file and the directory; the
// journal it starts over is fsynced by the next append, with its record.
func TestCompactIgnoresLeftoverTemp(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Obs: reg}) // fsyncs on
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Load(); err != nil {
		t.Fatal(err)
	}
	rec := liveInstance(rand.New(rand.NewSource(15)), 1)
	if err := s.Append(Record{Op: OpCreate, Inst: rec}); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatalf("Load with a leftover temp snapshot: %v", err)
	}
	fsyncs, _ := reg.Value("oddci_journal_fsyncs_total")
	if err := s.Compact(st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp snapshot still there after Compact: %v", err)
	}
	if v, _ := reg.Value("oddci_journal_fsyncs_total"); v-fsyncs != 2 {
		t.Fatalf("Compact issued %v fsyncs, want 2 (temp snapshot, directory)", v-fsyncs)
	}
	if err := s.Append(Record{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: rec.Target}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Value("oddci_journal_fsyncs_total"); v-fsyncs != 3 {
		t.Fatalf("the append after Compact issued %v fsyncs, want 1", v-fsyncs-2)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if r := got.Instances[1]; r == nil || !bytes.Equal(r.Image, rec.Image) || r.Target != rec.Target {
		t.Fatal("compacted state differs from what was appended")
	}
}

// TestLoadOrCreateKeyDurable: the key is written through a temp file;
// a stray temp key from an interrupted first start is ignored (and
// replaced), and an existing key is reused byte for byte.
func TestLoadOrCreateKeyDurable(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, keyFile+".tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	k, err := LoadOrCreateKey(dir)
	if err != nil {
		t.Fatalf("LoadOrCreateKey with a stray temp key: %v", err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp key still there: %v", err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, keyFile))
	if err != nil || !bytes.Equal(onDisk, k) {
		t.Fatalf("saved key differs from the returned one (%v)", err)
	}

	dir = t.TempDir()
	_, want, err := ed25519.GenerateKey(rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, keyFile), want, 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOrCreateKey(dir)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("existing key not reused byte for byte (%v)", err)
	}
	if onDisk, _ := os.ReadFile(filepath.Join(dir, keyFile)); !bytes.Equal(onDisk, want) {
		t.Fatal("loading an existing key rewrote it")
	}
}

// TestCompactionCutBeforeJournalReset: a compaction that dies after its
// snapshot rename and before the journal starts over leaves the old
// journal beside the new snapshot. Its chunk frames store chunks that
// snapshot holds, and its earlier manifests name chunks only the old
// snapshot held; Load must skip it whole and recover the last image bit
// for bit, and the next append must start the journal over.
func TestCompactionCutBeforeJournalReset(t *testing.T) {
	dir := t.TempDir()
	s := loadedTestStore(t, dir, Options{})
	rec := liveInstance(rand.New(rand.NewSource(17)), 1)
	rec.Image, rec.Chunks = chunkyImage([]byte{1, 2, 3, 4}, 10), nil
	if err := s.Append(Record{Op: OpCreate, Inst: rec}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(st); err != nil {
		t.Fatal(err)
	}
	// Two updates, each of one chunk: the first's manifest names chunks
	// 1-3 of the first image, which the next snapshot no longer holds.
	last := chunkyImage([]byte{5, 6, 3, 4}, 10)
	for seq, img := range [][]byte{chunkyImage([]byte{5, 2, 3, 4}, 10), last} {
		if err := s.Append(Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: uint32(seq + 2), Wakeups: 1, Image: img}}); err != nil {
			t.Fatal(err)
		}
	}
	jpath := filepath.Join(dir, journalFile)
	old, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s.Load(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(st); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(jpath, old, 0o644); err != nil { // the truncation never landed
		t.Fatal(err)
	}

	s = openTestStore(t, dir, Options{})
	got, err := s.Load()
	if err != nil {
		t.Fatalf("Load of a new snapshot beside the journal it folded in: %v", err)
	}
	if r := got.Instances[1]; r == nil || r.Seq != 3 || !bytes.Equal(r.Image, last) || appimage.RootOf(len(r.Image), r.Chunks) != appimage.DigestOf(last) {
		t.Fatal("recovered state is not the last image")
	}
	if s.NeedsCompaction() {
		t.Fatal("a skipped journal counts toward compaction")
	}
	if err := s.Append(Record{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 77}}); err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(jb, journalHeader(2)) || len(jb) > 64 {
		t.Fatalf("the append after a skipped journal left %d bytes, want one record under generation 2", len(jb))
	}
	s.Close()
	got, err = openTestStore(t, dir, Options{}).Load()
	if err != nil {
		t.Fatal(err)
	}
	if r := got.Instances[1]; r.Target != 77 || !bytes.Equal(r.Image, last) {
		t.Fatal("reload after the journal started over lost the append or the image")
	}
}

// TestStoreAppendsAfterIOErrors: a failed append or a compaction whose
// journal reset fails does not stall the store. A record that failed is
// cut off before the next goes in (its chunks stored again), and a
// compaction's reset is retried by the next append, so the directory
// loads at every point and ends holding every record that succeeded.
func TestStoreAppendsAfterIOErrors(t *testing.T) {
	dir := t.TempDir()
	s := loadedTestStore(t, dir, Options{})
	rec := liveInstance(rand.New(rand.NewSource(18)), 1)
	rec.Image, rec.Chunks = chunkyImage([]byte{1, 2}, 10), nil
	if err := s.Append(Record{Op: OpCreate, Inst: rec}); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, journalFile)
	writable := s.f
	breakFile := func() {
		ro, err := os.Open(jpath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ro.Close() })
		s.f = ro
	}
	loads := func(stage string) *State {
		t.Helper()
		st, err := openTestStore(t, dir, Options{}).Load()
		if err != nil {
			t.Fatalf("%s: Load: %v", stage, err)
		}
		return st
	}

	// An append that fails, then a torn tail of it on disk.
	img := chunkyImage([]byte{3, 2}, 10)
	breakFile()
	if err := s.Append(Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Image: img}}); err == nil {
		t.Fatal("append to a read-only journal succeeded")
	}
	torn, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn.Write([]byte{0, 4, 0, 0, byte(opChunk), 3, 3})
	torn.Close()
	s.f = writable
	if err := s.Append(Record{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Image: img}}); err != nil {
		t.Fatalf("append after a failed one: %v", err)
	}
	if st := loads("after a failed append"); !bytes.Equal(st.Instances[1].Image, img) {
		t.Fatal("the retried record's new chunk was not stored")
	}

	// A compaction whose journal reset fails after the rename.
	st, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	breakFile()
	if err := s.Compact(st); err == nil {
		t.Fatal("compaction over a read-only journal reported success")
	}
	loads("after a failed reset")
	s.f = writable
	if err := s.Append(Record{Op: OpResize, Inst: InstanceRecord{ID: 1, Target: 5}}); err != nil {
		t.Fatalf("append after a failed reset: %v", err)
	}
	if st := loads("after the retried reset"); st.Instances[1].Target != 5 || !bytes.Equal(st.Instances[1].Image, img) {
		t.Fatal("state after the retried reset differs from what was appended")
	}
	if s.Err() == nil {
		t.Fatal("Err() should still report the first failure")
	}
}
