package dsmcc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"oddci/internal/mpegts"
)

// encodeCyclePackets renders one full cycle as TS packets, continuing
// continuity counters across calls.
func encodeCyclePackets(t *testing.T, c *Carousel, mux *mpegts.Mux) [][]byte {
	t.Helper()
	secs, err := c.EncodeCycle()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range secs {
		if err := mux.EnqueueSection(c.pid, s); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := mux.DrainBytes()
	if err != nil {
		t.Fatal(err)
	}
	var pkts [][]byte
	for off := 0; off < len(stream); off += mpegts.PacketSize {
		pkts = append(pkts, stream[off:off+mpegts.PacketSize])
	}
	return pkts
}

// The carousel's whole point: reception losses in one cycle are healed
// by the next retransmission. Drop 5% of cycle 1's packets; the
// receiver must finish from cycle 2 (and never assemble corrupt data).
func TestCyclicRetransmissionHealsLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	img := make([]byte, 150000)
	rng.Read(img)
	c, err := NewCarousel(0x340, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFiles([]File{
		{Name: "pna.xlet", Data: bytes.Repeat([]byte{0x11}, 20000)},
		{Name: "image", Data: img},
	}); err != nil {
		t.Fatal(err)
	}
	mux := mpegts.NewMux()
	recv := NewReceiver()
	demux := mpegts.NewDemux()
	demux.Handle(c.pid, recv.HandleSection)

	// Cycle 1 with 5% packet loss.
	dropped := 0
	for _, pkt := range encodeCyclePackets(t, c, mux) {
		if rng.Float64() < 0.05 {
			dropped++
			continue
		}
		p, err := mpegts.ParsePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		demux.PushPacket(p)
	}
	if dropped == 0 {
		t.Fatal("test vacuous: nothing dropped")
	}
	if data, ok := recv.File("image"); ok && !bytes.Equal(data, img) {
		t.Fatal("receiver assembled corrupt data from the lossy cycle")
	}

	// Cycle 2 clean: everything must complete correctly.
	for _, pkt := range encodeCyclePackets(t, c, mux) {
		p, err := mpegts.ParsePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		demux.PushPacket(p)
	}
	for _, name := range []string{"pna.xlet", "image"} {
		got, ok := recv.File(name)
		if !ok {
			t.Fatalf("%s not recovered after retransmission (%v)", name, recv)
		}
		want := img
		if name == "pna.xlet" {
			want = bytes.Repeat([]byte{0x11}, 20000)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s content corrupt after loss + retransmission", name)
		}
	}
}

// Property: corrupt content is never surfaced regardless of loss rate,
// and at low loss (≤5%, where a 4 KB section still survives a cycle
// with good probability) retransmission always completes the file.
// Higher rates may legitimately fail to converge: one lost TS packet
// voids a whole ~23-packet section, which is why real DVB runs forward
// error correction below the TS layer.
func TestLossRecoveryProperty(t *testing.T) {
	f := func(seed int64, lossPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		loss := float64(lossPct%16) / 100
		payload := make([]byte, rng.Intn(60000)+5000)
		rng.Read(payload)
		c, err := NewCarousel(0x341, 0)
		if err != nil {
			return false
		}
		if err := c.SetFiles([]File{{Name: "f", Data: payload}}); err != nil {
			return false
		}
		mux := mpegts.NewMux()
		recv := NewReceiver()
		demux := mpegts.NewDemux()
		demux.Handle(c.pid, recv.HandleSection)
		for cycle := 0; cycle < 40; cycle++ {
			secs, err := c.EncodeCycle()
			if err != nil {
				return false
			}
			for _, s := range secs {
				if err := mux.EnqueueSection(c.pid, s); err != nil {
					return false
				}
			}
			stream, err := mux.DrainBytes()
			if err != nil {
				return false
			}
			for off := 0; off < len(stream); off += mpegts.PacketSize {
				if rng.Float64() < loss {
					continue
				}
				p, err := mpegts.ParsePacket(stream[off : off+mpegts.PacketSize])
				if err != nil {
					return false
				}
				demux.PushPacket(p)
			}
			if got, ok := recv.File("f"); ok {
				return bytes.Equal(got, payload) // never corrupt
			}
		}
		// Non-completion after 40 cycles: acceptable only above the
		// low-loss regime.
		return loss > 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
