package mpegts

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSectionRoundTrip(t *testing.T) {
	s := &Section{
		TableID:     TableIDDSMCCDDB,
		TableIDExt:  0xBEEF,
		Version:     17,
		CurrentNext: true,
		Number:      3,
		LastNumber:  9,
		Payload:     []byte("carousel module data"),
	}
	raw, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeSection(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d", n, len(raw))
	}
	if got.TableID != s.TableID || got.TableIDExt != s.TableIDExt || got.Version != s.Version ||
		got.Number != s.Number || got.LastNumber != s.LastNumber || !got.CurrentNext {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, s.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestSectionCRCRejectsCorruption(t *testing.T) {
	s := &Section{TableID: 1, Payload: []byte{1, 2, 3, 4}}
	raw, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	raw[5] ^= 0x01
	if _, _, err := DecodeSection(raw); err != ErrSectionCRC {
		t.Fatalf("err = %v, want ErrSectionCRC", err)
	}
}

func TestSectionMaxPayload(t *testing.T) {
	s := &Section{TableID: 1, Payload: make([]byte, MaxSectionPayload)}
	raw, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 3+MaxSectionLength {
		t.Fatalf("encoded %d bytes, want %d", len(raw), 3+MaxSectionLength)
	}
	s.Payload = make([]byte, MaxSectionPayload+1)
	if _, err := s.Encode(); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestPacketizeAssembleSingleSection(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	s := &Section{TableID: TableIDDSMCCDDB, TableIDExt: 1, Payload: payload}
	raw, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pkts, nextCC, err := PacketizeSection(0x123, 0, raw)
	if err != nil {
		t.Fatal(err)
	}
	if int(nextCC) != len(pkts)%16 {
		t.Fatalf("nextCC = %d with %d packets", nextCC, len(pkts))
	}

	a := NewAssembler(0x123)
	var sections [][]byte
	for _, p := range pkts {
		sections = append(sections, a.Push(p)...)
	}
	if len(sections) != 1 {
		t.Fatalf("assembled %d sections, want 1", len(sections))
	}
	if !bytes.Equal(sections[0], raw) {
		t.Fatal("reassembled section differs")
	}
	if a.discarded != 0 {
		t.Fatalf("assembler reported %d errors", a.discarded)
	}
}

func TestAssemblerContinuityBreakDiscardsPartial(t *testing.T) {
	s := &Section{TableID: 1, Payload: make([]byte, 1000)}
	raw, _ := s.Encode()
	pkts, _, _ := PacketizeSection(7, 0, raw)
	if len(pkts) < 3 {
		t.Fatalf("need ≥3 packets, got %d", len(pkts))
	}
	a := NewAssembler(7)
	a.Push(pkts[0])
	// skip pkts[1]: continuity gap
	var out [][]byte
	for _, p := range pkts[2:] {
		out = append(out, a.Push(p)...)
	}
	if len(out) != 0 {
		t.Fatal("section completed despite lost packet")
	}
	if a.discarded == 0 {
		t.Fatal("loss not recorded")
	}

	// A fresh retransmission must still succeed afterwards.
	pkts2, _, _ := PacketizeSection(7, 8, raw)
	for _, p := range pkts2 {
		out = append(out, a.Push(p)...)
	}
	if len(out) != 1 || !bytes.Equal(out[0], raw) {
		t.Fatal("assembler did not recover after retransmission")
	}
}

func TestAssemblerIgnoresForeignPID(t *testing.T) {
	s := &Section{TableID: 1, Payload: []byte{1}}
	raw, _ := s.Encode()
	pkts, _, _ := PacketizeSection(5, 0, raw)
	a := NewAssembler(6)
	for _, p := range pkts {
		if got := a.Push(p); got != nil {
			t.Fatal("assembler accepted foreign PID")
		}
	}
}

// Property: any sequence of sections with random payload sizes, streamed
// through packetization and reassembly, comes out intact and in order.
func TestSectionStreamRoundTripProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%8 + 1
		var raws [][]byte
		cc := uint8(0)
		a := NewAssembler(0x55)
		var got [][]byte
		for i := 0; i < n; i++ {
			payload := make([]byte, rng.Intn(4000)+1)
			rng.Read(payload)
			s := &Section{TableID: 0x3C, TableIDExt: uint16(i), Payload: payload}
			raw, err := s.Encode()
			if err != nil {
				return false
			}
			raws = append(raws, raw)
			pkts, next, err := PacketizeSection(0x55, cc, raw)
			if err != nil {
				return false
			}
			cc = next
			for _, p := range pkts {
				got = append(got, a.Push(p)...)
			}
		}
		if len(got) != len(raws) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], raws[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPacketizeAssemble(b *testing.B) {
	s := &Section{TableID: 0x3C, Payload: make([]byte, 4000)}
	raw, _ := s.Encode()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		pkts, _, _ := PacketizeSection(1, 0, raw)
		a := NewAssembler(1)
		for _, p := range pkts {
			a.Push(p)
		}
	}
}
