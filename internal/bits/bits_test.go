package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Write(0x47, 8) // sync byte
	w.Write(0, 1)    // TEI
	w.Write(1, 1)    // PUSI
	w.Write(0, 1)    // priority
	w.Write(0x1FFF, 13)
	w.Write(0, 2)
	w.Write(1, 2)
	w.Write(7, 4)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	buf := w.Bytes()
	if len(buf) != 4 {
		t.Fatalf("len = %d, want 4", len(buf))
	}

	r := NewReader(buf)
	checks := []struct {
		n    int
		want uint64
	}{{8, 0x47}, {1, 0}, {1, 1}, {1, 0}, {13, 0x1FFF}, {2, 0}, {2, 1}, {4, 7}}
	for i, c := range checks {
		got, err := r.Read(c.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != c.want {
			t.Fatalf("field %d = %#x, want %#x", i, got, c.want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d bits", r.Remaining())
	}
}

func TestValueOverflowRecorded(t *testing.T) {
	w := NewWriter()
	w.Write(256, 8)
	if w.Err() == nil {
		t.Fatal("overflow not recorded")
	}
}

func TestUnalignedBytesRejected(t *testing.T) {
	w := NewWriter()
	w.Write(1, 3)
	w.WriteBytes([]byte{1, 2})
	if w.Err() == nil {
		t.Fatal("unaligned WriteBytes not recorded")
	}
}

func TestReaderOverrun(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.Read(9); err != ErrOverrun {
		t.Fatalf("err = %v, want ErrOverrun", err)
	}
	if _, err := r.Read(8); err != nil {
		t.Fatalf("8-bit read after failed 9-bit read: %v", err)
	}
}

func TestSkipAndOffset(t *testing.T) {
	r := NewReader([]byte{0x12, 0x34, 0x56})
	if err := r.Skip(12); err != nil {
		t.Fatal(err)
	}
	v, err := r.Read(4)
	if err != nil || v != 0x4 {
		t.Fatalf("read after skip = %#x,%v want 0x4", v, err)
	}
	if r.pos != 16 {
		t.Fatalf("bit position = %d, want 16", r.pos)
	}
}

func TestWriteBytesRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Write(0xAB, 8)
	w.WriteBytes([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	if _, err := r.Read(8); err != nil {
		t.Fatal(err)
	}
	for _, want := range []byte{1, 2, 3} {
		if got, err := r.Read(8); err != nil || got != uint64(want) {
			t.Fatalf("byte = %v, %v, want %d", got, err, want)
		}
	}
}

// Property: any sequence of (width, value) fields round-trips.
func TestFieldSequenceRoundTripProperty(t *testing.T) {
	type field struct {
		width uint8
		value uint64
	}
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%64 + 1
		fields := make([]field, n)
		w := NewWriter()
		total := 0
		for i := range fields {
			width := rng.Intn(24) + 1
			value := rng.Uint64() & (1<<uint(width) - 1)
			fields[i] = field{uint8(width), value}
			w.Write(value, width)
			total += width
		}
		if pad := (8 - total%8) % 8; pad > 0 {
			w.Write(0, pad)
		}
		if w.Err() != nil {
			return false
		}
		r := NewReader(w.Bytes())
		for _, fl := range fields {
			got, err := r.Read(int(fl.width))
			if err != nil || got != fl.value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
