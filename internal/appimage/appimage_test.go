package appimage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
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
		return len(raw) == im.EncodedLen() && reflect.DeepEqual(got, im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestManifestCodec: a manifest decodes to its size and digests and
// re-encodes to its bytes, a 0-byte image lists no chunks, and a header
// cut short or a digest list other than ChunkCount(size) long is refused.
func TestManifestCodec(t *testing.T) {
	ds := []Digest{{1}, {2}, {1}}
	raw := AppendManifest(nil, 2*ChunkBytes+1, ds)
	if len(raw) != 4+3*sha256.Size {
		t.Fatalf("manifest of 3 chunks is %d bytes", len(raw))
	}
	size, got, err := DecodeManifest(raw)
	if err != nil || size != 2*ChunkBytes+1 || !slices.Equal(got, ds) || !bytes.Equal(AppendManifest(nil, size, got), raw) {
		t.Fatalf("round trip: size %d, %x, %v", size, got, err)
	}
	if size, got, err := DecodeManifest(AppendManifest(nil, 0, nil)); err != nil || size != 0 || got != nil {
		t.Fatalf("0-byte image: size %d, %x, %v", size, got, err)
	}
	for name, b := range map[string][]byte{
		"no header":       nil,
		"short header":    raw[:3],
		"a digest short":  raw[:len(raw)-sha256.Size],
		"a byte short":    raw[:len(raw)-1],
		"a trailing byte": append(raw[:len(raw):len(raw)], 0),
		"4 GiB, no list":  AppendManifest(nil, 0xFFFFFFFF, nil),
	} {
		if _, _, err := DecodeManifest(b); err == nil {
			t.Errorf("manifest with %s accepted", name)
		}
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

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// pooled items on purpose.
var raceEnabled bool

// patterned is size bytes that differ per seed and per position, so a
// digest put in another chunk's slot, or taken from another image, shows.
func patterned(seed, size int) []byte {
	raw := make([]byte, size)
	rand.New(rand.NewSource(int64(seed))).Read(raw)
	return raw
}

// TestDigestOfAllocatesNothing: the controller and every PNA call
// DigestOf per image; it allocates nothing, on one core (where it
// streams) or on several (where it fans out). testing.AllocsPerRun pins
// GOMAXPROCS to 1, so only MemStats around runs at GOMAXPROCS 2 see the
// multi-core path; a digest slice made per call fails it 1000 times over.
// The runtime itself allocates now and then while goroutines hand off
// (a new thread, a wait-queue entry for a P whose cache ran dry), so the
// bound holds for the best of three runs.
func TestDigestOfAllocatesNothing(t *testing.T) {
	raw := make([]byte, 1<<20)
	if got := testing.AllocsPerRun(10, func() { DigestOf(raw) }); got != 0 {
		t.Fatalf("DigestOf of 1 MiB allocates %.0f times on one core", got)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the multi-core half is not measurable")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for range 100 { // warm: start the helpers, pool a job with its digests
		DigestOf(raw)
	}
	const calls = 1000
	best := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			DigestOf(raw)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best > 4 {
		t.Fatalf("%d DigestOf calls of 1 MiB at GOMAXPROCS 2 made %d allocations at best, want ≤ 4", calls, best)
	}
}

// TestDigestOfAnyCoreCount: at 1, 2 and 8 procs, for images of no chunk,
// one, a chunk boundary either side, and many, DigestOf is RootOf over the
// plain per-chunk SHA-256s and ChunkDigests is that list, appended. With
// the pinned image among them, TestDigestIsChunkRoot's literal holds at
// every proc count.
func TestDigestOfAnyCoreCount(t *testing.T) {
	images := map[string][]byte{"pinned": pinnedImage()}
	for i, size := range []int{0, 1, ChunkBytes - 1, ChunkBytes, ChunkBytes + 1, 33*ChunkBytes + 7} {
		images[fmt.Sprintf("%d bytes", size)] = patterned(i, size)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for name, raw := range images {
			want := chunkDigests(raw)
			if got := DigestOf(raw); got != RootOf(len(raw), want) {
				t.Errorf("procs %d, %s: DigestOf differs from RootOf over its chunk digests", procs, name)
			}
			head := Digest{0xAA}
			if got := ChunkDigests([]Digest{head}, raw); got[0] != head || !slices.Equal(got[1:], want) {
				t.Errorf("procs %d, %s: ChunkDigests differs from the per-chunk SHA-256s", procs, name)
			}
		}
	}
}

// TestChunkDigestsSinceHashesOnlyChanges: against its predecessor, an
// image's chunk digests are the ones ChunkDigests computes, and only
// the chunks that differ are hashed — by content at the same slot, so a
// grown or shrunk tail is hashed and a stale digest list is ignored — at
// any proc count.
func TestChunkDigestsSinceHashesOnlyChanges(t *testing.T) {
	prev := patterned(7, 6*ChunkBytes+100)
	prevDs := chunkDigests(prev)
	edit := func(raw []byte, chunks ...int) []byte {
		raw = slices.Clone(raw)
		for _, k := range chunks {
			raw[k*ChunkBytes+17] ^= 0xFF
		}
		return raw
	}
	cases := []struct {
		name   string
		raw    []byte
		prevDs []Digest
		hashed int
	}{
		{"unchanged", slices.Clone(prev), prevDs, 0},
		{"two changed", edit(prev, 1, 4), prevDs, 2},
		{"tail grown", append(slices.Clone(prev), 1, 2, 3), prevDs, 1},
		{"a chunk longer", append(slices.Clone(prev), make([]byte, ChunkBytes)...), prevDs, 2},
		{"shrunk to three", slices.Clone(prev[:3*ChunkBytes]), prevDs, 0},
		{"stale digests ignored", edit(prev, 2), prevDs[:3], 7},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			got, hashed := ChunkDigestsSince(nil, c.raw, prev, c.prevDs)
			if !slices.Equal(got, chunkDigests(c.raw)) {
				t.Errorf("procs %d, %s: digests differ from the image's chunk SHA-256s", procs, c.name)
			}
			if hashed != c.hashed {
				t.Errorf("procs %d, %s: hashed %d chunks, want %d", procs, c.name, hashed, c.hashed)
			}
		}
		if _, hashed := ChunkDigestsSince(nil, prev, nil, nil); hashed != len(prevDs) {
			t.Errorf("procs %d: a first generation hashed %d of %d chunks", procs, hashed, len(prevDs))
		}
	}
}

// TestDigestOfConcurrentCallers: callers hashing distinct images at once
// share the helpers and the job pool, and none ever gets a digest of
// another's chunks, or another's predecessor's. Run it under -race.
func TestDigestOfConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const callers, rounds = 16, 8
	var wg sync.WaitGroup
	for c := range callers {
		raw := patterned(100+c, (2+c%4)*ChunkBytes+c)
		wantChunks := chunkDigests(raw)
		want := RootOf(len(raw), wantChunks)
		next := slices.Clone(raw)
		next[ChunkBytes+c] ^= 0xFF // chunk 1 changes
		wantNext := chunkDigests(next)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				if DigestOf(raw) != want {
					t.Errorf("caller %d, round %d: DigestOf is not its image's root", c, r)
					return
				}
				if !slices.Equal(ChunkDigests(nil, raw), wantChunks) {
					t.Errorf("caller %d, round %d: ChunkDigests are not its image's chunks", c, r)
					return
				}
				if ds, hashed := ChunkDigestsSince(nil, next, raw, wantChunks); hashed != 1 || !slices.Equal(ds, wantNext) {
					t.Errorf("caller %d, round %d: ChunkDigestsSince hashed %d chunks or got another's digests", c, r, hashed)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDigestOf: compare MB/s at -cpu 1,2 to see the fan-out.
func BenchmarkDigestOf(b *testing.B) {
	for _, size := range []int{1 << 20, 8 << 20} {
		raw := patterned(0, size)
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for range b.N {
				digestSink = DigestOf(raw)
			}
		})
	}
}

var digestSink Digest

func TestOversizedNamesRejected(t *testing.T) {
	im := &Image{Name: string(make([]byte, 256))}
	if _, err := im.Encode(); err == nil {
		t.Fatal("256-byte name accepted")
	}
}
