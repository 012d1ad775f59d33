package transport

import (
	"bytes"
	"crypto/ed25519"
	"math/rand"
	"runtime"
	"testing"

	"oddci/internal/appimage"
	"oddci/internal/dsmcc"
)

// asmFrame is one broadcast frame as the assembler is fed it.
type asmFrame struct {
	t FrameType
	p []byte
}

// generationFrames is one image generation as a coordinator holding key
// pushes it — control, manifest, then the chunk of each slot in send —
// for raw split into chunkBytes chunks.
func generationFrames(t *testing.T, key ed25519.PrivateKey, raw []byte, chunkBytes int, send []int) []asmFrame {
	t.Helper()
	m := ImageManifest{Name: "image.1", Size: len(raw), ChunkBytes: chunkBytes}
	var chunks [][]byte
	for off := 0; off < len(raw); off += chunkBytes {
		ch := raw[off:min(off+chunkBytes, len(raw))]
		m.Hashes = append(m.Hashes, dsmcc.HashOf(ch))
		chunks = append(chunks, ch)
	}
	frames := []asmFrame{
		{FrameControl, signedWakeup(t, key, appimage.DigestOf(raw))},
		{FrameImageManifest, AppendImageManifest(nil, &m)},
	}
	for _, i := range send {
		frames = append(frames, asmFrame{FrameImageChunk, AppendImageChunk(nil, m.Hashes[i], chunks[i])})
	}
	return frames
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
// each allocate about one image, and each stages exactly once. Sizing a
// buffer per frame, as an assembly attempt after every frame does, costs
// ~33 images cold and ~3 on the restage.
func TestAssemblerEconomy(t *testing.T) {
	const chunkBytes, chunks = 256 << 10, 32
	pub, key, err := ed25519.GenerateKey(rand.New(rand.NewSource(26)))
	if err != nil {
		t.Fatal(err)
	}
	cold := encodeImage(t, chunkedImage(t, 26, chunks*chunkBytes-64))
	restaged := append([]byte(nil), cold...)
	restaged[5*chunkBytes] ^= 0xFF
	restaged[20*chunkBytes+7] ^= 0xFF
	a := &imageAssembler{key: pub}
	for _, phase := range []struct {
		name string
		raw  []byte
		send []int
	}{
		{"cold", cold, slots(0, chunks)},
		{"restage", restaged, []int{5, 20}},
	} {
		frames := generationFrames(t, key, phase.raw, chunkBytes, phase.send)
		var stagedAt []int
		got := allocatedBy(func() { stagedAt = feedAll(t, a, frames) })
		stagesOnLast(t, a, frames, stagedAt, phase.raw)
		t.Logf("%s: %d bytes allocated, %.3f × the image", phase.name, got, float64(got)/float64(len(phase.raw)))
		if limit := 1.1 * float64(len(phase.raw)); float64(got) > limit {
			t.Errorf("%s allocated %d bytes, want ≤ %.0f (1.1 × the %d-byte image)", phase.name, got, limit, len(phase.raw))
		}
	}
}

// TestAssemblerDeliveryOrderAndLayout: the image verifies, and stages
// exactly once, whatever order its chunks come in, wherever a manifest
// puts them, and whether or not one is repeated; the chunks a restage
// still lists are not sent again.
func TestAssemblerDeliveryOrderAndLayout(t *testing.T) {
	const cb = 4 << 10
	pub, key, err := ed25519.GenerateKey(rand.New(rand.NewSource(27)))
	if err != nil {
		t.Fatal(err)
	}
	img := chunkedImage(t, 27, 8*cb-100)
	base := encodeImage(t, img) // 8 slots, the last one short
	header := len(base) - len(img.Payload)

	t.Run("reverse order", func(t *testing.T) {
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, base, cb, []int{7, 6, 5, 4, 3, 2, 1, 0})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), base)
	})

	t.Run("one hash at two non-adjacent slots", func(t *testing.T) {
		raw := append([]byte(nil), base...)
		copy(raw[5*cb:6*cb], raw[2*cb:3*cb])
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, raw, cb, []int{0, 1, 2, 3, 4, 6, 7})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), raw)
	})

	t.Run("restage moves held chunks and shortens the image", func(t *testing.T) {
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, base, cb, slots(0, 8))
		stagesOnLast(t, a, frames, feedAll(t, a, frames), base)
		first := a.img
		// Five full slots and a 1000-byte tail: a new header chunk, four
		// held chunks at new offsets, a new last chunk.
		raw := encodeImage(t, chunkedImage(t, 28, 5*cb+1000-header))
		for to, from := range []int{6, 3, 1, 4} {
			copy(raw[(to+1)*cb:(to+2)*cb], base[from*cb:(from+1)*cb])
		}
		frames = generationFrames(t, key, raw, cb, []int{0, 5})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), raw)
		if !bytes.Equal(first.Payload, img.Payload) {
			t.Fatal("restaging wrote into the previous image's buffer")
		}
	})

	t.Run("held chunk re-sent while another is missing", func(t *testing.T) {
		a := &imageAssembler{key: pub}
		frames := generationFrames(t, key, base, cb, []int{0, 1, 2, 3, 4, 5, 6, 3, 3, 7})
		stagesOnLast(t, a, frames, feedAll(t, a, frames), base)
	})
}
