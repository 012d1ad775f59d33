package mpegts

import (
	"bytes"
	"testing"
)

// Round-robin fairness: with two PIDs queued, emitted packets alternate
// so neither stream starves — the multiplexing behaviour that lets a
// data service share the transport stream with audio/video.
func TestMuxRoundRobinFairness(t *testing.T) {
	mux := NewMux()
	big := &Section{TableID: 1, Payload: bytes.Repeat([]byte{0xA}, 3000)}
	rawA, _ := big.Encode()
	rawB, _ := big.Encode()
	if err := mux.EnqueueSection(0x100, rawA); err != nil {
		t.Fatal(err)
	}
	if err := mux.EnqueueSection(0x200, rawB); err != nil {
		t.Fatal(err)
	}
	var order []uint16
	for {
		p := mux.NextPacket()
		if p == nil {
			break
		}
		order = append(order, p.PID)
	}
	if len(order) < 4 {
		t.Fatalf("too few packets: %d", len(order))
	}
	// Strict alternation while both queues are non-empty.
	for i := 1; i < len(order)-1; i++ {
		if order[i] == order[i-1] {
			t.Fatalf("packet %d repeated PID %#x: %v", i, order[i], order)
		}
	}
}

func TestMuxPendingAndDrain(t *testing.T) {
	mux := NewMux()
	s := &Section{TableID: 1, Payload: []byte{1, 2, 3}}
	raw, _ := s.Encode()
	mux.EnqueueSection(7, raw)
	if n := len(mux.queues[7].pkts); n != 1 {
		t.Fatalf("pending = %d", n)
	}
	stream, err := mux.DrainBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) != PacketSize {
		t.Fatalf("stream = %d bytes", len(stream))
	}
	if len(mux.queues[7].pkts) != 0 {
		t.Fatal("drain left packets")
	}
	if mux.NextPacket() != nil {
		t.Fatal("empty mux emitted a packet")
	}
}

// Continuity counters increment per PID across enqueued sections.
func TestMuxContinuityPerPID(t *testing.T) {
	mux := NewMux()
	s := &Section{TableID: 1, Payload: []byte{9}}
	raw, _ := s.Encode()
	for i := 0; i < 3; i++ {
		mux.EnqueueSection(5, raw)
		mux.EnqueueSection(6, raw)
	}
	ccByPID := map[uint16][]uint8{}
	for {
		p := mux.NextPacket()
		if p == nil {
			break
		}
		ccByPID[p.PID] = append(ccByPID[p.PID], p.Continuity)
	}
	for pid, ccs := range ccByPID {
		for i, cc := range ccs {
			if int(cc) != i%16 {
				t.Fatalf("PID %#x continuity %v", pid, ccs)
			}
		}
	}
}

func TestMuxDemuxEndToEnd(t *testing.T) {
	mux := NewMux()
	// Two PIDs carrying different tables, interleaved.
	sig := &Section{TableID: TableIDAIT, TableIDExt: 0x10, Payload: []byte("signalling")}
	rawSig, _ := sig.Encode()
	if err := mux.EnqueueSection(0x20, rawSig); err != nil {
		t.Fatal(err)
	}
	var wantData [][]byte
	for i := 0; i < 5; i++ {
		s := &Section{TableID: TableIDDSMCCDDB, TableIDExt: uint16(i), Payload: bytes.Repeat([]byte{byte(i)}, 900)}
		raw, _ := s.Encode()
		wantData = append(wantData, raw)
		if err := mux.EnqueueSection(0x300, raw); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := mux.DrainBytes()
	if err != nil {
		t.Fatal(err)
	}
	if len(stream)%PacketSize != 0 {
		t.Fatalf("stream not packet-aligned: %d", len(stream))
	}

	demux := NewDemux()
	var gotSig []byte
	var gotData [][]byte
	demux.Handle(0x20, func(sec []byte) { gotSig = sec })
	demux.Handle(0x300, func(sec []byte) { gotData = append(gotData, sec) })
	if err := demux.PushBytes(stream); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSig, rawSig) {
		t.Fatalf("signalling section not recovered: %x", gotSig)
	}
	if len(gotData) != len(wantData) {
		t.Fatalf("recovered %d data sections, want %d", len(gotData), len(wantData))
	}
	for i := range gotData {
		if !bytes.Equal(gotData[i], wantData[i]) {
			t.Fatalf("data section %d differs", i)
		}
	}
}

func TestDemuxCountsUnhandled(t *testing.T) {
	demux := NewDemux()
	p := &Packet{PID: 0x99, Payload: bytes.Repeat([]byte{0}, 184)}
	demux.PushPacket(p)
	if demux.Unhandled != 1 {
		t.Fatalf("Unhandled = %d", demux.Unhandled)
	}
}

func TestDemuxUnhandle(t *testing.T) {
	demux := NewDemux()
	n := 0
	demux.Handle(5, func([]byte) { n++ })
	s := &Section{TableID: 1, Payload: []byte{1}}
	raw, _ := s.Encode()
	pkts, _, _ := PacketizeSection(5, 0, raw)
	for _, p := range pkts {
		demux.PushPacket(p)
	}
	demux.unhandle(5)
	pkts2, _, _ := PacketizeSection(5, 1, raw)
	for _, p := range pkts2 {
		demux.PushPacket(p)
	}
	if n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
}
