// Package appimage defines the application-image format staged to
// processing nodes through the broadcast channel: a manifest (name,
// version, entry point) plus the payload, with a SHA-256 root over the
// encoding's chunks binding the two. The wakeup control message
// references an image by that digest so a PNA can verify what the
// carousel delivered before executing it.
package appimage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Image is one deployable application.
type Image struct {
	// Name labels the application.
	Name string
	// Version distinguishes successive deployments.
	Version uint32
	// EntryPoint names the application behaviour to run inside the DVE
	// (resolved against the node's registry — the substitution for
	// executing shipped binaries).
	EntryPoint string
	// Payload is the application body staged over broadcast; for the
	// simulator its size is what matters, for demos it can carry real
	// content (e.g. an encoded BLAST database).
	Payload []byte
}

const magic = 0x0DDC1136

// EncodedLen is the length of the image's canonical wire form, known
// without encoding it.
func (im *Image) EncodedLen() int {
	return 14 + len(im.Name) + len(im.EntryPoint) + len(im.Payload)
}

// Encode serializes the image into its canonical wire form.
func (im *Image) Encode() ([]byte, error) {
	if len(im.Name) > 255 || len(im.EntryPoint) > 255 {
		return nil, errors.New("appimage: name or entry point too long")
	}
	b := make([]byte, 0, im.EncodedLen())
	b = binary.BigEndian.AppendUint32(b, magic)
	b = binary.BigEndian.AppendUint32(b, im.Version)
	b = append(b, byte(len(im.Name)))
	b = append(b, im.Name...)
	b = append(b, byte(len(im.EntryPoint)))
	b = append(b, im.EntryPoint...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(im.Payload)))
	b = append(b, im.Payload...)
	return b, nil
}

// Decode parses an encoded image. The returned Payload aliases raw, so
// it is read-only whenever raw is (a shared carousel delivery is).
func Decode(raw []byte) (*Image, error) {
	if len(raw) < 10 {
		return nil, errors.New("appimage: truncated")
	}
	if binary.BigEndian.Uint32(raw) != magic {
		return nil, errors.New("appimage: bad magic")
	}
	im := &Image{Version: binary.BigEndian.Uint32(raw[4:])}
	b := raw[8:]
	nameLen := int(b[0])
	b = b[1:]
	if len(b) < nameLen+1 {
		return nil, errors.New("appimage: truncated name")
	}
	im.Name = string(b[:nameLen])
	b = b[nameLen:]
	epLen := int(b[0])
	b = b[1:]
	if len(b) < epLen+4 {
		return nil, errors.New("appimage: truncated entry point")
	}
	im.EntryPoint = string(b[:epLen])
	b = b[epLen:]
	plen := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) != plen {
		return nil, fmt.Errorf("appimage: payload length %d, header says %d", len(b), plen)
	}
	im.Payload = b
	return im, nil
}

// Digest is a SHA-256: of one chunk of an encoded image, or the image's
// root over those (RootOf).
type Digest [sha256.Size]byte

// ChunkBytes is the chunk size of the image digest: an encoded image is
// hashed, and staged over TCP, as consecutive ChunkBytes chunks, the
// last one shorter.
const ChunkBytes = 256 << 10

// rootTag separates a root from the digest of a chunk that happens to
// hold the same bytes.
const rootTag = "oddci appimage root v1\x00"

// RootOf is the digest of a size-byte encoded image whose ChunkBytes
// chunks hash, in order, to chunks: a SHA-256 over a fixed tag, size as a
// big-endian uint64, then each chunk's SHA-256. The length binds the
// chunk count and the last chunk's length, so a receiver that checks
// each chunk against its entry on arrival and the entries against the
// root once has checked every byte, each byte once.
func RootOf(size int, chunks []Digest) Digest {
	return root(size, len(chunks), func(i int) Digest { return chunks[i] })
}

// root hashes the tag, size, then chunk(i) for each of n chunks. The
// hash state stays on the stack, so a root allocates nothing.
func root(size, n int, chunk func(i int) Digest) Digest {
	h := sha256.New()
	h.Write([]byte(rootTag))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(size))
	h.Write(b[:])
	for i := 0; i < n; i++ {
		c := chunk(i)
		h.Write(c[:])
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Digest computes the image's content digest.
func (im *Image) Digest() (Digest, error) {
	raw, err := im.Encode()
	if err != nil {
		return Digest{}, err
	}
	return DigestOf(raw), nil
}

// DigestOf is the digest of an already-encoded image: RootOf its chunks.
// A multi-chunk image's chunks are hashed on up to GOMAXPROCS cores (see
// hashJob); one chunk, or one core, streams in one pass. Neither path
// allocates in steady state, and both give the same root.
//
// The helpers that share the work are not actors of any simulated clock,
// and the caller waits for them on a WaitGroup, not by suspending on its
// clock, so it still counts as runnable there and virtual time cannot
// advance mid-hash: the result, and every simulated timeline, is the same
// on any core count.
func DigestOf(raw []byte) Digest {
	n := ChunkCount(len(raw))
	if n < 2 || runtime.GOMAXPROCS(0) < 2 {
		return root(len(raw), n, func(i int) Digest { return chunkDigest(raw, i) })
	}
	j := jobs.Get().(*hashJob)
	d := RootOf(len(raw), j.hash(raw))
	jobs.Put(j)
	return d
}

// ChunkDigests appends to dst the SHA-256 of each ChunkBytes chunk of
// the encoded image raw, in order — the list RootOf(len(raw), ·) roots —
// hashing them as DigestOf does, and returns the extended slice.
func ChunkDigests(dst []Digest, raw []byte) []Digest {
	dst, _ = ChunkDigestsSince(dst, raw, nil, nil)
	return dst
}

// ChunkDigestsSince is ChunkDigests for a successor of prev, an encoded
// image whose chunk digests are prevDs: chunk i takes prevDs[i] unhashed
// when its bytes equal chunk i of prev, so an update hashes only the
// chunks it changed. Comparing costs a memory scan, far less than a
// hash, and is shared out over the cores as the hashing is. It also
// returns how many chunks it hashed.
func ChunkDigestsSince(dst []Digest, raw, prev []byte, prevDs []Digest) ([]Digest, int) {
	if len(prevDs) != ChunkCount(len(prev)) {
		prev, prevDs = nil, nil // not prev's digests: hash every chunk
	}
	j := jobs.Get().(*hashJob)
	j.prev, j.prevDs = prev, prevDs
	dst = append(dst, j.hash(raw)...)
	hashed := int(j.hashed.Load())
	jobs.Put(j)
	return dst, hashed
}

// ChunkCount is the number of ChunkBytes chunks in a size-byte encoded
// image: the length of its chunk digest list.
func ChunkCount(size int) int { return (size + ChunkBytes - 1) / ChunkBytes }

// Chunk returns chunk i of the encoded image raw: the one place an
// encoded image is split.
func Chunk(raw []byte, i int) []byte {
	return raw[i*ChunkBytes : min((i+1)*ChunkBytes, len(raw))]
}

// AppendManifest appends to dst the manifest of a size-byte encoded
// image whose chunks hash to chunks: size(4) digest(32)..., with
// ChunkCount(size) digests in chunk order. It is the one encoding of an
// image as its chunk list, which the TCP image plane and the journal
// both carry.
func AppendManifest(dst []byte, size int, chunks []Digest) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(size))
	for i := range chunks {
		dst = append(dst, chunks[i][:]...)
	}
	return dst
}

// DecodeManifest reverses AppendManifest on exactly one manifest. It
// checks the digest count against the bytes present before it allocates
// the list, which is nil for a 0-byte image.
func DecodeManifest(b []byte) (size int, chunks []Digest, err error) {
	if len(b) < 4 {
		return 0, nil, errors.New("appimage: short manifest")
	}
	size, b = int(binary.BigEndian.Uint32(b)), b[4:]
	n := ChunkCount(size)
	if len(b) != n*sha256.Size {
		return 0, nil, fmt.Errorf("appimage: manifest of a %d-byte image holds %d digest bytes, want %d digests", size, len(b), n)
	}
	if n > 0 {
		chunks = make([]Digest, n)
		for i := range chunks {
			chunks[i] = Digest(b[i*sha256.Size:])
		}
	}
	return size, chunks, nil
}

// chunkDigest is the SHA-256 of chunk i of raw: the one place a chunk is
// hashed.
func chunkDigest(raw []byte, i int) Digest { return sha256.Sum256(Chunk(raw, i)) }

// hashJob is one image's chunk hashing, shared by its caller and any
// helpers it finds idle. Jobs are pooled, so ds keeps its capacity and a
// hash allocates nothing once warm.
type hashJob struct {
	raw  []byte
	ds   []Digest       // ds[i] is chunk i's digest, written by whoever claims i
	next atomic.Int64   // the next chunk index to claim
	wg   sync.WaitGroup // helpers still working on this job
	// prev and prevDs, when set, are the encoding raw succeeds and its
	// chunk digests (ChunkDigestsSince); hashed counts the chunks that
	// differed from it and were hashed.
	prev   []byte
	prevDs []Digest
	hashed atomic.Int64
}

var (
	jobs = sync.Pool{New: func() any { return new(hashJob) }}

	// hashWork feeds the helpers: runtime.NumCPU()-1 goroutines, started
	// on the first multi-core hash and parked on this channel for the life
	// of the process. It is unbuffered and only ever sent to without
	// blocking, so a job goes only to a helper already waiting, and a
	// caller that finds none idle hashes the rest itself rather than
	// queueing behind another caller's image.
	hashWork     = make(chan *hashJob)
	startHelpers sync.Once
)

func helper() {
	for j := range hashWork {
		j.claim()
		j.wg.Done()
	}
}

// hash fills j.ds with raw's chunk digests, on this goroutine and up to
// min(GOMAXPROCS, chunks)-1 idle helpers, and returns it once every chunk
// is hashed. The slice is the job's: it is valid until j is pooled again.
func (j *hashJob) hash(raw []byte) []Digest {
	n := ChunkCount(len(raw))
	j.raw, j.ds = raw, slices.Grow(j.ds[:0], n)[:n]
	j.next.Store(0)
	j.hashed.Store(0)
	if workers := min(runtime.GOMAXPROCS(0), n); workers > 1 {
		startHelpers.Do(func() {
			for range runtime.NumCPU() - 1 {
				go helper()
			}
		})
		j.recruit(workers - 1)
	}
	j.claim()
	j.wg.Wait() // no helper touches j after this, so it may be pooled
	// A pooled job must not keep an image alive.
	j.raw, j.prev, j.prevDs = nil, nil, nil
	return j.ds
}

// recruit hands j to up to k helpers, stopping as soon as none is
// waiting for work.
func (j *hashJob) recruit(k int) {
	for ; k > 0; k-- {
		j.wg.Add(1)
		select {
		case hashWork <- j:
		default:
			j.wg.Done()
			return
		}
	}
}

// claim hashes chunks until none is left to claim.
func (j *hashJob) claim() {
	for {
		i := int(j.next.Add(1) - 1)
		if i >= len(j.ds) {
			return
		}
		if i < len(j.prevDs) && bytes.Equal(Chunk(j.raw, i), Chunk(j.prev, i)) {
			j.ds[i] = j.prevDs[i]
			continue
		}
		j.ds[i] = chunkDigest(j.raw, i)
		j.hashed.Add(1)
	}
}

// Verify checks raw against an expected digest and decodes it.
func Verify(raw []byte, want Digest) (*Image, error) {
	if DigestOf(raw) != want {
		return nil, errors.New("appimage: digest mismatch")
	}
	return Decode(raw)
}
