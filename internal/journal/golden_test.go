package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"oddci/internal/appimage"
	"oddci/internal/core/instance"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_records.txt from this build's encoders")

const goldenRecords = "testdata/golden_records.txt"

// goldenRecordCases are a create record and an image-bearing recompose
// record, each framed alone with a manifest of three chunks, one of them
// repeated (no image bytes: a record names its chunks, chunk frames store
// them), and a whole small journal file holding both ops, its chunk
// frames and a sequence bump.
func goldenRecordCases(t *testing.T) []struct {
	name string
	b    []byte
} {
	t.Helper()
	a, b := sha256.Sum256([]byte("a")), sha256.Sum256([]byte("b"))
	chunks := []appimage.Digest{a, b, a}
	create := Record{Op: OpCreate, Inst: InstanceRecord{
		ID: 1, Seq: 2, Wakeups: 3, Resets: 4, Probability: 0.25, Destroyed: true, ResetTicks: -2, Target: 7,
		HeartbeatPeriod: 10 * time.Second, Lifetime: time.Hour,
		Requirements: instance.Requirements{Class: instance.ClassSTB, MinMemMB: 128, MinCPUScore: 50},
		ImageFile:    "image.1", Image: make([]byte, 2*appimage.ChunkBytes+5),
	}}
	recompose := Record{Op: OpRecompose, Inst: InstanceRecord{
		ID: 1, Seq: 5, Wakeups: 6, Probability: 0.5, Image: make([]byte, 2*appimage.ChunkBytes+5),
	}}
	frame := func(r Record) []byte {
		payload, err := appendRecordPayload(nil, &r, chunks)
		if err != nil {
			t.Fatal(err)
		}
		return appendFrame(nil, payload)
	}
	file, _, err := encodeJournal(3, []Record{
		{Op: OpCreate, Inst: InstanceRecord{ID: 1, Seq: 1, Wakeups: 1, Probability: 1, Target: 4,
			HeartbeatPeriod: time.Second, ImageFile: "image.1", Image: []byte("the first image")}},
		{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 2, Wakeups: 2, Probability: 1, Image: []byte("the second image")}},
		{Op: OpRecompose, Inst: InstanceRecord{ID: 1, Seq: 3, Wakeups: 3, Probability: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		b    []byte
	}{
		{"create_record", frame(create)},
		{"recompose_record", frame(recompose)},
		{"journal_file", file},
	}
}

// reencodeRecords decodes a golden entry and encodes it again: a lone
// record frame through the record codec, a journal file whole.
func reencodeRecords(t *testing.T, name string, b []byte) []byte {
	t.Helper()
	if name == "journal_file" {
		nextID, recs, err := DecodeJournal(b)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := encodeJournal(nextID, recs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	n := int(binary.BigEndian.Uint32(b))
	if len(b) != 4+n+4 {
		t.Fatalf("%s: a %d-byte frame announces a %d-byte payload", name, len(b), n)
	}
	r, size, err := decodeRecordPayload(b[4 : 4+n])
	if err != nil {
		t.Fatal(err)
	}
	r.Inst.Image = make([]byte, size)
	payload, err := appendRecordPayload(nil, &r, r.Inst.Chunks)
	if err != nil {
		t.Fatal(err)
	}
	return appendFrame(nil, payload)
}

// TestGoldenRecords pins the journal's record and file encodings to the
// bytes in testdata/golden_records.txt: each encodes to them, and they
// decode and re-encode to themselves. A layout change fails it, and
// bumps codecVersion.
func TestGoldenRecords(t *testing.T) {
	cases := goldenRecordCases(t)
	if *updateGolden {
		var b strings.Builder
		for _, c := range cases {
			b.WriteString(c.name + " " + hex.EncodeToString(c.b) + "\n")
		}
		if err := os.WriteFile(goldenRecords, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenRecords)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, h, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenRecords, sc.Text())
		}
		if golden[name], err = hex.DecodeString(h); err != nil {
			t.Fatalf("%s: %s: %v", goldenRecords, name, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(cases) {
		t.Fatalf("%s holds %d entries, want %d", goldenRecords, len(golden), len(cases))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no %s", goldenRecords, c.name)
		}
		if !bytes.Equal(c.b, want) {
			t.Errorf("%s encodes to\n%x\nwant\n%x", c.name, c.b, want)
		}
		if re := reencodeRecords(t, c.name, want); !bytes.Equal(re, want) {
			t.Errorf("%s re-encodes to\n%x\nwant\n%x", c.name, re, want)
		}
	}
}
