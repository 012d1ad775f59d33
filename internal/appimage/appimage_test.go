package appimage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	im := &Image{
		Name:       "blast-worker",
		Version:    3,
		EntryPoint: "botworker",
		Payload:    bytes.Repeat([]byte{0xAB}, 100000),
	}
	raw, err := im.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, im) {
		t.Fatal("round trip mismatch")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Decode(make([]byte, 32)); err == nil {
		t.Fatal("zero magic accepted")
	}
	im := &Image{Name: "x", EntryPoint: "y", Payload: []byte{1, 2, 3}}
	raw, _ := im.Encode()
	if _, err := Decode(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestDigestVerify(t *testing.T) {
	im := &Image{Name: "app", EntryPoint: "main", Payload: []byte("body")}
	raw, _ := im.Encode()
	d, err := im.Digest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Verify(raw, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "app" {
		t.Fatalf("verified image: %+v", got)
	}
	raw[len(raw)-1] ^= 1
	if _, err := Verify(raw, d); err == nil {
		t.Fatal("tampered image verified")
	}
}

// Property: digest is content-determined and collision-evident for
// single-byte changes.
func TestDigestProperty(t *testing.T) {
	f := func(payload []byte, flip uint8, pos uint16) bool {
		im := &Image{Name: "p", EntryPoint: "e", Payload: payload}
		d1, err := im.Digest()
		if err != nil {
			return false
		}
		d2, err := im.Digest()
		if err != nil || d1 != d2 {
			return false
		}
		if len(payload) == 0 || flip == 0 {
			return true
		}
		mutated := append([]byte(nil), payload...)
		mutated[int(pos)%len(mutated)] ^= flip
		im2 := &Image{Name: "p", EntryPoint: "e", Payload: mutated}
		d3, err := im2.Digest()
		if err != nil {
			return false
		}
		return d1 != d3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary images round-trip.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, size)
		rng.Read(payload)
		im := &Image{
			Name:       "app",
			Version:    rng.Uint32(),
			EntryPoint: "entry",
			Payload:    payload,
		}
		raw, err := im.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(raw)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// pinnedImage is three chunks, the last 1000 bytes long; byte i is
// i*7 plus its chunk index.
func pinnedImage() []byte {
	raw := make([]byte, 2*ChunkBytes+1000)
	for i := range raw {
		raw[i] = byte(i*7 + i/ChunkBytes)
	}
	return raw
}

// chunkDigests is the plain SHA-256 of each ChunkBytes chunk of raw.
func chunkDigests(raw []byte) []Digest {
	var ds []Digest
	for off := 0; off < len(raw); off += ChunkBytes {
		ds = append(ds, sha256.Sum256(raw[off:min(off+ChunkBytes, len(raw))]))
	}
	return ds
}

// TestDigestIsChunkRoot pins the image digest: a root over the full
// per-chunk SHA-256s, bound to the image length. The literal was
// computed outside Go, from the definition on RootOf.
func TestDigestIsChunkRoot(t *testing.T) {
	raw := pinnedImage()
	const want = "c95edcdfd615373a56d5edcb2e6c35b2328560341629d30d2630b81366101abd"
	if got := DigestOf(raw); hex.EncodeToString(got[:]) != want {
		t.Fatalf("DigestOf = %x, want %s", got, want)
	}
	ds := chunkDigests(raw)
	if len(ds) != 3 || DigestOf(raw) != RootOf(len(raw), ds) {
		t.Fatal("DigestOf differs from RootOf over its chunk digests")
	}

	mutants := map[string][]byte{"appended byte": append(raw[:len(raw):len(raw)], 0)}
	for c := 0; c < 3; c++ {
		m := append([]byte(nil), raw...)
		m[c*ChunkBytes+100] ^= 1
		mutants[fmt.Sprintf("byte flipped in chunk %d", c)] = m
	}
	swapped := append([]byte(nil), raw...)
	copy(swapped, raw[ChunkBytes:2*ChunkBytes])
	copy(swapped[ChunkBytes:], raw[:ChunkBytes])
	mutants["chunks 0 and 1 swapped"] = swapped
	for name, m := range mutants {
		if DigestOf(m) == DigestOf(raw) {
			t.Errorf("%s: root unchanged", name)
		}
	}
	// The length is in the root: the same digests under another size
	// root differently.
	if RootOf(len(raw)+1, ds) == RootOf(len(raw), ds) {
		t.Error("root does not bind the image length")
	}
}

// TestDigestOfAllocatesNothing: the controller, every PNA and the TCP
// coordinator call DigestOf per image; it streams.
func TestDigestOfAllocatesNothing(t *testing.T) {
	raw := make([]byte, 1<<20)
	if got := testing.AllocsPerRun(10, func() { DigestOf(raw) }); got != 0 {
		t.Fatalf("DigestOf of 1 MiB allocates %.0f times", got)
	}
}

func TestOversizedNamesRejected(t *testing.T) {
	im := &Image{Name: string(make([]byte, 256))}
	if _, err := im.Encode(); err == nil {
		t.Fatal("256-byte name accepted")
	}
}
