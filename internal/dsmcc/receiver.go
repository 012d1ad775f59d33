package dsmcc

import (
	"fmt"
	"sync"
)

// Receiver assembles carousel files from a stream of decoded DSM-CC
// sections — the byte-exact counterpart of the Broadcaster's timing
// model. Feed it sections from an mpegts.Demux handler. Blocks may
// arrive in any order and spanning cycle boundaries (the BlockCache
// behaviour); completed files are read back with File.
//
// When the DII carries the content-hash extension, the receiver keys
// correctness on hashes: assembled modules are verified against the
// advertised hash, unchanged modules survive version-number wraps, and
// an attached ChunkCache satisfies modules without hearing their blocks
// at all — which is what makes a delta re-air (DII + changed modules)
// sufficient. With DisableHashes set (or against a pre-hash sender) it
// behaves as a legacy receiver: versions compare by equality per DII,
// so it stays correct as long as it hears a DII at least once per 256
// updates of a module.
type Receiver struct {
	// DisableHashes ignores the DII content-hash extension, modelling a
	// pre-hash receiver for mixed-version interop tests. Set before use.
	DisableHashes bool

	mu sync.Mutex

	dii      *DII
	partials map[moduleKey]*partialModule
	complete map[string][]byte
	// meta records the ModuleInfo each completed file was assembled
	// under (with Hash always populated when hashes are enabled), so a
	// fresh DII can tell "same content" from "wrapped version".
	meta  map[string]ModuleInfo
	done  map[moduleKey]bool
	cache *ChunkCache

	// SectionErrors counts undecodable sections.
	SectionErrors int
}

type moduleKey struct {
	id      uint16
	version uint8
}

type partialModule struct {
	info   ModuleInfo
	blocks map[uint16][]byte
	need   int
}

// NewReceiver returns an empty receiver.
func NewReceiver() *Receiver {
	return &Receiver{
		partials: make(map[moduleKey]*partialModule),
		complete: make(map[string][]byte),
		meta:     make(map[string]ModuleInfo),
		done:     make(map[moduleKey]bool),
	}
}

// SetCache attaches a chunk cache: assembled modules are published into
// it, and fresh DIIs satisfy changed-directory entries from it by
// content hash. A nil cache detaches. The cache may be shared across
// receivers and outlive this one.
func (r *Receiver) SetCache(c *ChunkCache) {
	r.mu.Lock()
	r.cache = c
	r.mu.Unlock()
}

// File returns the assembled contents of name, if complete.
func (r *Receiver) File(name string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.complete[name]
	return d, ok
}

// HandleSection consumes one raw section (table 0x3B or 0x3C).
func (r *Receiver) HandleSection(sec []byte) {
	if len(sec) == 0 {
		return
	}
	switch sec[0] {
	case 0x3B:
		d, err := DecodeDII(sec)
		if err != nil {
			r.mu.Lock()
			r.SectionErrors++
			r.mu.Unlock()
			return
		}
		r.handleDII(d)
	case 0x3C:
		b, err := DecodeDDB(sec)
		if err != nil {
			r.mu.Lock()
			r.SectionErrors++
			r.mu.Unlock()
			return
		}
		r.handleDDB(b)
	default:
		r.mu.Lock()
		r.SectionErrors++
		r.mu.Unlock()
	}
}

func (r *Receiver) handleDII(d *DII) {
	r.mu.Lock()
	// Serial-number comparison, not inequality: a long-lived carousel
	// wraps its uint32 generation, and out-of-order stragglers from an
	// older generation must not roll the directory back.
	fresh := r.dii == nil || NewerGeneration(d.TransactionID, r.dii.TransactionID)
	if !fresh {
		r.mu.Unlock()
		return
	}
	r.dii = d
	valid := make(map[moduleKey]ModuleInfo, len(d.Modules))
	// Rebuild the done set from the new directory. This is the uint8
	// version-wrap fix: a done mark recorded 256 content changes ago
	// under the same {id, version} key must not suppress fresh blocks,
	// so done marks survive only for modules whose content is verifiably
	// unchanged (hash match, or version equality on the legacy path).
	// It also bounds done/partial growth to the live directory.
	done := make(map[moduleKey]bool, len(d.Modules))
	for _, m := range d.Modules {
		k := moduleKey{m.ID, m.Version}
		valid[k] = m
		if r.currentLocked(m) {
			done[k] = true
			prev := r.meta[m.Name]
			if m.Hash == 0 {
				m.Hash = prev.Hash
			}
			r.meta[m.Name] = m
			continue
		}
		if !r.DisableHashes && m.Hash != 0 {
			if data, ok := r.cache.Get(m.Hash); ok {
				// Content-addressed short-circuit: the module changed on
				// air but we already hold these exact bytes locally.
				r.complete[m.Name] = data
				r.meta[m.Name] = m
				done[k] = true
			}
		}
	}
	r.done = done
	// Drop partials for superseded versions and promote any that were
	// buffered before this DII arrived and are already complete.
	for k, p := range r.partials {
		m, ok := valid[k]
		if !ok || done[k] {
			delete(r.partials, k)
			continue
		}
		p.info = m
		p.need = blocksFor(int(m.Size), int(d.BlockSize))
		if data, ok := r.assembleLocked(p); ok {
			r.finishLocked(k, p, data)
		}
	}
	r.mu.Unlock()
}

// currentLocked reports whether the completed bytes held for m.Name are
// exactly the content the directory entry m describes. Hashes decide
// when both sides have one (immune to version wraps); otherwise version
// equality per DII is the best a legacy receiver can do.
func (r *Receiver) currentLocked(m ModuleInfo) bool {
	prev, ok := r.meta[m.Name]
	if !ok || prev.ID != m.ID {
		return false
	}
	if _, have := r.complete[m.Name]; !have {
		return false
	}
	if !r.DisableHashes && m.Hash != 0 && prev.Hash != 0 {
		return prev.Hash == m.Hash
	}
	return prev.Version == m.Version
}

func blocksFor(size, blockSize int) int {
	if size == 0 {
		return 1
	}
	return (size + blockSize - 1) / blockSize
}

func (r *Receiver) handleDDB(b *DDB) {
	r.mu.Lock()
	k := moduleKey{b.ModuleID, b.Version}
	if r.done[k] {
		// This module version is already assembled; cyclic
		// retransmissions of its blocks are expected and ignored.
		r.mu.Unlock()
		return
	}
	p := r.partials[k]
	if p == nil {
		p = &partialModule{blocks: make(map[uint16][]byte)}
		if r.dii != nil {
			for _, m := range r.dii.Modules {
				if m.ID == b.ModuleID && m.Version == b.Version {
					p.info = m
					p.need = blocksFor(int(m.Size), int(r.dii.BlockSize))
					break
				}
			}
		}
		r.partials[k] = p
	}
	if _, dup := p.blocks[b.BlockNumber]; !dup {
		p.blocks[b.BlockNumber] = append([]byte(nil), b.Data...)
	}
	if p.need > 0 && len(p.blocks) >= p.need && r.dii != nil {
		if d, ok := r.assembleLocked(p); ok {
			r.finishLocked(k, p, d)
		}
	}
	r.mu.Unlock()
}

// assembleLocked stitches p and verifies the result against the DII's
// content hash when one is advertised. A mismatch means the blocks are
// corrupt (or a version wrap mixed two contents under one key); the
// partial is discarded so the cyclic retransmission rebuilds it.
func (r *Receiver) assembleLocked(p *partialModule) ([]byte, bool) {
	data, ok := p.assemble()
	if !ok {
		return nil, false
	}
	if !r.DisableHashes && p.info.Hash != 0 && HashOf(data) != p.info.Hash {
		p.blocks = make(map[uint16][]byte)
		return nil, false
	}
	return data, true
}

// finishLocked records an assembled module: completed bytes, metadata
// (with the content hash filled in), done mark, and cache publication.
func (r *Receiver) finishLocked(k moduleKey, p *partialModule, data []byte) {
	m := p.info
	if !r.DisableHashes {
		if m.Hash == 0 {
			m.Hash = HashOf(data)
		}
		r.cache.Put(m.Hash, data)
	}
	r.complete[m.Name] = data
	r.meta[m.Name] = m
	r.done[k] = true
	delete(r.partials, k)
}

// assemble stitches blocks into the module payload; done is false if
// metadata is missing or blocks are absent/ill-sized.
func (p *partialModule) assemble() ([]byte, bool) {
	if p.need == 0 || len(p.blocks) < p.need {
		return nil, false
	}
	data := make([]byte, 0, p.info.Size)
	for i := 0; i < p.need; i++ {
		blk, ok := p.blocks[uint16(i)]
		if !ok {
			return nil, false
		}
		data = append(data, blk...)
	}
	if len(data) != int(p.info.Size) {
		return nil, false
	}
	return data, true
}

// String summarizes receiver state for diagnostics.
func (r *Receiver) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("dsmcc.Receiver{complete:%d partial:%d errors:%d}",
		len(r.complete), len(r.partials), r.SectionErrors)
}
