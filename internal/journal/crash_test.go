package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// crashStates is the number of crash states TestCrashStatesRecover
// builds from its history. A change that shrinks the enumeration fails
// the test instead of passing with less checked.
const crashStates = 196

// cutPoints returns where a power cut may end b, the bytes an append
// wrote and had not yet acknowledged: at each frame boundary, after the
// length word, mid-payload and before the CRC, and, when b starts a
// fresh file, at 0 and inside the header. b itself, whole, is not a cut.
func cutPoints(b []byte, fresh bool) []int {
	var at []int
	p := 0
	if fresh {
		at, p = append(at, 0, journalHeaderLen/2), journalHeaderLen
	}
	for p < len(b) {
		n := int(binary.BigEndian.Uint32(b[p:]))
		at = append(at, p, p+4, p+4+n/2, p+4+n)
		p += 8 + n
	}
	return at
}

// TestCrashStatesRecover drives a scripted history through a Store and
// builds every state a power cut can leave its dir in: each append's
// unacknowledged bytes cut at every frame boundary, after the length
// word, mid-payload and before the CRC; each compaction's old file with
// its temp file at any such prefix, the old file alone, and the new
// file. Each state must Load to the folded state after the last
// acknowledged append (or the one in flight, whole), then take an
// Append and reload to that state plus the append. The probe append is
// a create under the recovered NextID of the image the cut step wrote,
// so chunks a torn tail held but Load did not keep are stored again.
func TestCrashStatesRecover(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "live")
	s := loadedTestStore(t, dir, Options{})
	jpath := filepath.Join(dir, journalFile)
	read := func() []byte {
		t.Helper()
		b, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rng := rand.New(rand.NewSource(20))
	inst := func(id uint64, img []byte) InstanceRecord {
		rec := liveInstance(rng, id)
		rec.Image, rec.Chunks = img, nil
		return rec
	}

	states := 0
	// check builds a dir of files, and requires it to Load to the state
	// want encodes, to take a create of img, and to reload to both.
	check := func(name string, files map[string][]byte, want []byte, img []byte) {
		t.Helper()
		states++
		d, err := os.MkdirTemp(root, "crash")
		if err != nil {
			t.Fatal(err)
		}
		for f, b := range files {
			if err := os.WriteFile(filepath.Join(d, f), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st := openTestStore(t, d, Options{})
		got, err := st.Load()
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if !bytes.Equal(compacted(t, got), want) {
			t.Fatalf("%s: recovered state is not the last acknowledged one", name)
		}
		nextID, recs, err := DecodeJournal(want)
		if err != nil {
			t.Fatal(err)
		}
		model := foldRecords(nextID, recs)
		probe := Record{Op: OpCreate, Inst: inst(model.NextID, img)}
		model.Apply(probe)
		if err := st.Append(probe); err != nil {
			t.Fatalf("%s: Append after recovery: %v", name, err)
		}
		st.Close()
		if got, err = openTestStore(t, d, Options{}).Load(); err != nil {
			t.Fatalf("%s: reload after the append: %v", name, err)
		}
		if !bytes.Equal(compacted(t, got), compacted(t, model)) {
			t.Fatalf("%s: reload after the append lost it or what came before", name)
		}
		if err := os.RemoveAll(d); err != nil {
			t.Fatal(err)
		}
	}

	imgA := chunkyImage([]byte{1}, 10)
	imgB := chunkyImage([]byte{1}, 20) // shares A's whole chunk
	imgC := []byte("a one-chunk image")
	imgD := []byte("another one-chunk image")
	const compact = OpGC + 100 // a history step that compacts
	history := []Record{
		{Op: OpCreate, Inst: inst(1, imgA)},
		{Op: OpCreate, Inst: inst(2, imgB)},
		{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Wakeups: 2, Probability: 0.5, Image: imgC}},
		{Op: OpRecompose, Inst: InstanceRecord{ID: 2, Seq: 2, Wakeups: 2, Probability: 0.25}},
		{Op: OpResize, Inst: InstanceRecord{ID: 2, Target: 9}},
		{Op: compact},
		{Op: OpCreate, Inst: inst(3, []byte("a small image"))},
		{Op: OpCreate, Inst: inst(4, imgB)},
		{Op: OpDestroy, Inst: InstanceRecord{ID: 3, Seq: 2, Resets: 1, ResetTicks: 4}},
		{Op: OpDestroy, Inst: InstanceRecord{ID: 4, Seq: 2, Resets: 1, ResetTicks: 4}},
		{Op: OpGC, Inst: InstanceRecord{ID: 4}}, // the highest ID: only the header keeps NextID 5
		{Op: compact},                           // 3 destroyed, not yet collected
		{Op: OpRecompose, Inst: InstanceRecord{ID: 2, Seq: 3, Wakeups: 3, Probability: 0.5, Image: imgC}},
		{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 3, Wakeups: 3, Probability: 0.5, Image: imgD}},
		{Op: OpGC, Inst: InstanceRecord{ID: 3}},
		{Op: OpCreate, Inst: inst(5, imgA)},
		{Op: compact},
		{Op: OpResize, Inst: InstanceRecord{ID: 5, Target: 3}},
	}
	model := NewState()
	for i, r := range history {
		before, acked := read(), compacted(t, model)
		if r.Op == compact {
			if err := s.Compact(model); err != nil {
				t.Fatal(err)
			}
			after := read()
			for _, c := range append(cutPoints(after, true), len(after)) {
				check(fmt.Sprintf("step %d: compaction's temp file cut at byte %d", i, c), map[string][]byte{journalFile: before, journalFile + ".tmp": after[:c]}, acked, imgA)
			}
			check(fmt.Sprintf("step %d: compaction before its temp file", i), map[string][]byte{journalFile: before}, acked, imgA)
			check(fmt.Sprintf("step %d: compaction renamed", i), map[string][]byte{journalFile: after}, acked, imgA)
			continue
		}
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		model.Apply(r)
		after := read()
		if !bytes.HasPrefix(after, before) {
			t.Fatalf("step %d (%s) rewrote acknowledged bytes", i, r.Op)
		}
		img := r.Inst.Image
		if len(img) == 0 {
			img = imgA
		}
		for _, c := range cutPoints(after[len(before):], len(before) == 0) {
			check(fmt.Sprintf("step %d (%s): append cut at byte %d", i, r.Op, c), map[string][]byte{journalFile: after[:len(before)+c]}, acked, img)
		}
		check(fmt.Sprintf("step %d (%s): append whole", i, r.Op), map[string][]byte{journalFile: after}, compacted(t, model), img)
	}
	t.Logf("%d crash states recovered", states)
	if states != crashStates {
		t.Fatalf("explored %d crash states, want %d", states, crashStates)
	}
}
