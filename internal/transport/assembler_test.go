package transport

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"math/rand"
	"runtime"
	"testing"

	"oddci/internal/appimage"
)

// asmFrame is one broadcast frame as the assembler is fed it.
type asmFrame struct {
	t FrameType
	p []byte
}

// generationFrames is one image generation as a coordinator holding key
// pushes it — control, manifest, then the chunk of each slot in send.
func generationFrames(t *testing.T, key ed25519.PrivateKey, raw []byte, send []int) []asmFrame {
	t.Helper()
	m := ImageManifest{Name: "image.1", Size: len(raw)}
	var chunks [][]byte
	for off := 0; off < len(raw); off += appimage.ChunkBytes {
		ch := raw[off:min(off+appimage.ChunkBytes, len(raw))]
		m.Digests = append(m.Digests, sha256.Sum256(ch))
		chunks = append(chunks, ch)
	}
	frames := []asmFrame{
		{FrameControl, signedWakeup(t, key, appimage.DigestOf(raw))},
		{FrameImageManifest, AppendImageManifest(nil, &m)},
	}
	for _, i := range send {
		frames = append(frames, asmFrame{FrameImageChunk, AppendImageChunk(nil, m.Digests[i], chunks[i])})
	}
	return frames
}

// onWire concatenates frames as a coordinator writes them.
func onWire(t *testing.T, frames []asmFrame) []byte {
	t.Helper()
	var b []byte
	for _, f := range frames {
		var err error
		if b, err = AppendFrame(b, f.t, f.p); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// feedAll feeds frames in order and returns the index of each frame
// that completed a verified image.
func feedAll(t *testing.T, a *imageAssembler, frames []asmFrame) (stagedAt []int) {
	t.Helper()
	for i, f := range frames {
		staged, err := a.feed(f.t, f.p)
		if err != nil {
			t.Fatalf("frame %d (type %d): %v", i, f.t, err)
		}
		if staged {
			stagedAt = append(stagedAt, i)
		}
	}
	return stagedAt
}

// stagesOnLast fails the test unless exactly the last frame staged an
// image, and that image is raw.
func stagesOnLast(t *testing.T, a *imageAssembler, frames []asmFrame, stagedAt []int, raw []byte) {
	t.Helper()
	if len(stagedAt) != 1 || stagedAt[0] != len(frames)-1 {
		t.Fatalf("staged at frames %v, want only the last (%d)", stagedAt, len(frames)-1)
	}
	if a.digest != appimage.DigestOf(raw) || !bytes.Equal(a.buf, raw) {
		t.Fatal("staged image is not the one broadcast")
	}
}

func slots(from, to int) []int {
	var s []int
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

func encodeImage(t *testing.T, img *appimage.Image) []byte {
	t.Helper()
	raw, err := img.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAssemblerEconomy: a cold 32 × 256 KiB join and a 2-of-32 restage
// each allocate about one image, stage exactly once, and hash each byte
// they are sent once: the cold join its image, the restage its two
// chunks. Sizing a buffer per frame, as an assembly attempt after every
// frame does, costs ~33 images cold and ~3 on the restage; checking the
// whole buffer again at completion hashes every image byte twice cold
// and all of it on a restage.
func TestAssemblerEconomy(t *testing.T) {
	const chunks = 32
	pub, key, err := ed25519.GenerateKey(rand.New(rand.NewSource(26)))
	if err != nil {
		t.Fatal(err)
	}
	cold := encodeImage(t, chunkedImage(t, 26, chunks*appimage.ChunkBytes-64))
	restaged := append([]byte(nil), cold...)
	restaged[5*appimage.ChunkBytes] ^= 0xFF
	restaged[20*appimage.ChunkBytes+7] ^= 0xFF
	a := &imageAssembler{key: pub}
	for _, phase := range []struct {
		name   string
		raw    []byte
		send   []int
		hashed int
	}{
		{"cold", cold, slots(0, chunks), len(cold)},
		{"restage", restaged, []int{5, 20}, 2 * appimage.ChunkBytes},
	} {
		frames := generationFrames(t, key, phase.raw, phase.send)
		var stagedAt []int
		hashed := a.hashed
		got := allocatedBy(func() { stagedAt = feedAll(t, a, frames) })
		stagesOnLast(t, a, frames, stagedAt, phase.raw)
		t.Logf("%s: %d bytes allocated, %.3f × the image", phase.name, got, float64(got)/float64(len(phase.raw)))
		if limit := 1.1 * float64(len(phase.raw)); float64(got) > limit {
			t.Errorf("%s allocated %d bytes, want ≤ %.0f (1.1 × the %d-byte image)", phase.name, got, limit, len(phase.raw))
		}
		if hashed = a.hashed - hashed; hashed != phase.hashed {
			t.Errorf("%s hashed %d bytes, want %d", phase.name, hashed, phase.hashed)
		}
	}
	// A chunk longer than its slot is refused before it is hashed.
	hashed := a.hashed
	oversized := AppendImageChunk(nil, a.manifest.Digests[0], make([]byte, appimage.ChunkBytes+1))
	if _, err := a.feed(FrameImageChunk, oversized); err == nil || a.hashed != hashed {
		t.Errorf("oversized chunk: err = %v after hashing %d bytes, want it refused unhashed", err, a.hashed-hashed)
	}
}

// TestAssemblerDeliveryOrderAndLayout: the image verifies, and stages
// exactly once, whatever order its chunks come in, wherever a manifest
// puts them, and whether or not one is repeated; the chunks a restage
// still lists are not sent again.
func TestAssemblerDeliveryOrderAndLayout(t *testing.T) {
	const cb = appimage.ChunkBytes
	pub, key, err := ed25519.GenerateKey(rand.New(rand.NewSource(27)))
	if err != nil {
		t.Fatal(err)
	}
	img := chunkedImage(t, 27, 8*cb-100)
	base := encodeImage(t, img) // 8 slots, the last one short
	header := len(base) - len(img.Payload)

	t.Run("reverse order", func(t *testing.T) {
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, base, []int{7, 6, 5, 4, 3, 2, 1, 0})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), base)
	})

	t.Run("one hash at two non-adjacent slots", func(t *testing.T) {
		raw := append([]byte(nil), base...)
		copy(raw[5*cb:6*cb], raw[2*cb:3*cb])
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, raw, []int{0, 1, 2, 3, 4, 6, 7})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), raw)
	})

	t.Run("restage moves held chunks and shortens the image", func(t *testing.T) {
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, base, slots(0, 8))
		stagesOnLast(t, a, frames, feedAll(t, a, frames), base)
		first := a.img
		// Five full slots and a 1000-byte tail: a new header chunk, four
		// held chunks at new offsets, a new last chunk.
		raw := encodeImage(t, chunkedImage(t, 28, 5*cb+1000-header))
		for to, from := range []int{6, 3, 1, 4} {
			copy(raw[(to+1)*cb:(to+2)*cb], base[from*cb:(from+1)*cb])
		}
		frames = generationFrames(t, key, raw, []int{0, 5})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), raw)
		if !bytes.Equal(first.Payload, img.Payload) {
			t.Fatal("restaging wrote into the previous image's buffer")
		}
	})

	t.Run("held chunk re-sent while another is missing", func(t *testing.T) {
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, base, []int{0, 1, 2, 3, 4, 5, 6, 3, 3, 7})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), base)
	})
}
