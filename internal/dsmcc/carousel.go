package dsmcc

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"oddci/internal/appimage"
	"oddci/internal/mpegts"
)

// File is one named payload carried by the carousel.
type File struct {
	Name string
	Data []byte
	// Chunks, when set, are the digests of Data's appimage.ChunkBytes
	// chunks, as the Controller hashed them: a head-end that stages an
	// image by chunk (the TCP coordinator) takes them instead of hashing
	// Data again. The carousel ignores them.
	Chunks []appimage.Digest
}

// Carousel is the sender-side content model: a versioned set of files
// mapped onto DSM-CC modules. It produces both the byte-exact section
// stream for one cycle and the wire-byte Layout used for timing.
type Carousel struct {
	// pid is the transport-stream PID the sections are muxed onto.
	// The Broadcaster's timing model does not packetize; a section-level
	// muxer reads it.
	pid       uint16
	blockSize int

	generation uint32
	moduleIDs  map[string]uint16
	versions   map[string]uint8
	hashes     map[string]ModuleHash
	changed    map[string]bool
	nextModule uint16
	files      []File
	noHashExt  bool
}

// NewCarousel returns an empty carousel transmitting on pid. blockSize 0
// selects DefaultBlockSize.
func NewCarousel(pid uint16, blockSize int) (*Carousel, error) {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < 1 || blockSize > maxBlockSize {
		return nil, fmt.Errorf("dsmcc: block size %d out of range [1,%d]", blockSize, maxBlockSize)
	}
	return &Carousel{
		pid:       pid,
		blockSize: blockSize,
		moduleIDs: make(map[string]uint16),
		versions:  make(map[string]uint8),
		hashes:    make(map[string]ModuleHash),
		changed:   make(map[string]bool),
	}, nil
}

// CheckFiles reports whether files is a content set any carrier can
// air: non-empty, every file named, no name twice.
func CheckFiles(files []File) error {
	if len(files) == 0 {
		return errors.New("dsmcc: empty content set")
	}
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		if f.Name == "" {
			return errors.New("dsmcc: empty file name")
		}
		if seen[f.Name] {
			return fmt.Errorf("dsmcc: duplicate file %q", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// Check reports whether SetFiles would accept files, changing nothing:
// on top of CheckFiles, every name fits a DII entry, every file fits a
// module, and the directory fits one section. Layout and EncodeCycle
// cannot fail on a set that passed.
func (c *Carousel) Check(files []File) error {
	if err := CheckFiles(files); err != nil {
		return err
	}
	dii := diiHeaderLen
	for _, f := range files {
		if len(f.Name) > 255 {
			return fmt.Errorf("dsmcc: file name %q too long", f.Name)
		}
		blocks := (len(f.Data) + c.blockSize - 1) / c.blockSize
		if blocks > 0xFFFF {
			return fmt.Errorf("dsmcc: file %q needs %d blocks, max 65535", f.Name, blocks)
		}
		dii += diiModuleLen + len(f.Name)
	}
	if !c.noHashExt {
		dii += 1 + HashLen*len(files)
	}
	if dii > mpegts.MaxSectionPayload {
		return errors.New("dsmcc: DII exceeds one section; split the carousel")
	}
	return nil
}

// SetFiles replaces the carousel contents. Module IDs are stable per
// name; versions bump when a file's content changes. The generation
// counter always increments, signalling receivers that the directory
// changed. The carousel keeps each Data slice, not a copy, and hands it
// on to receivers (LayoutEntry.Data): the caller must not write to it
// afterwards.
func (c *Carousel) SetFiles(files []File) error {
	if err := c.Check(files); err != nil {
		return err
	}
	old := make(map[string][]byte, len(c.files))
	for _, f := range c.files {
		old[f.Name] = f.Data
	}
	c.changed = make(map[string]bool)
	for _, f := range files {
		if _, ok := c.moduleIDs[f.Name]; !ok {
			c.moduleIDs[f.Name] = c.nextModule
			c.nextModule++
		}
		if prev, existed := old[f.Name]; !existed || !bytes.Equal(prev, f.Data) {
			if existed {
				c.versions[f.Name]++
			}
			// New files keep version 0 (map zero value).
			c.changed[f.Name] = true
			c.hashes[f.Name] = HashOf(f.Data)
		}
	}
	sorted := append([]File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool {
		return c.moduleIDs[sorted[i].Name] < c.moduleIDs[sorted[j].Name]
	})
	c.files = sorted
	c.generation++
	return nil
}

// DII builds the current directory message.
func (c *Carousel) DII() *DII {
	d := &DII{
		TransactionID: c.generation,
		BlockSize:     uint16(c.blockSize),
	}
	for _, f := range c.files {
		m := ModuleInfo{
			ID:      c.moduleIDs[f.Name],
			Version: c.versions[f.Name],
			Size:    uint32(len(f.Data)),
			Name:    f.Name,
		}
		if !c.noHashExt {
			m.Hash = c.hashes[f.Name]
		}
		d.Modules = append(d.Modules, m)
	}
	return d
}

// EncodeCycle emits the encoded sections of one full carousel cycle:
// the DII followed by every module's blocks in module order.
func (c *Carousel) EncodeCycle() ([][]byte, error) {
	if len(c.files) == 0 {
		return nil, errors.New("dsmcc: empty carousel")
	}
	dii, err := c.DII().Encode()
	if err != nil {
		return nil, err
	}
	out := [][]byte{dii}
	for _, f := range c.files {
		out, err = c.appendModuleSections(out, f)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EncodeDeltaCycle emits the sections of one delta re-air: the full DII
// (directory plus content hashes) followed by the blocks of only those
// modules whose content changed in the last SetFiles. A hash-aware
// receiver with a warm chunk cache converges from this alone; a
// hash-unaware or cold receiver treats the unchanged modules as lost
// blocks and heals from the regular full cycles that follow.
func (c *Carousel) EncodeDeltaCycle() ([][]byte, error) {
	if len(c.files) == 0 {
		return nil, errors.New("dsmcc: empty carousel")
	}
	dii, err := c.DII().Encode()
	if err != nil {
		return nil, err
	}
	out := [][]byte{dii}
	for _, f := range c.files {
		if !c.changed[f.Name] {
			continue
		}
		out, err = c.appendModuleSections(out, f)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// appendModuleSections encodes one module's DDB run onto out.
func (c *Carousel) appendModuleSections(out [][]byte, f File) ([][]byte, error) {
	id := c.moduleIDs[f.Name]
	ver := c.versions[f.Name]
	for blk, off := 0, 0; off < len(f.Data) || (len(f.Data) == 0 && blk == 0); blk++ {
		end := off + c.blockSize
		if end > len(f.Data) {
			end = len(f.Data)
		}
		ddb := &DDB{
			ModuleID:    id,
			Version:     ver,
			BlockNumber: uint16(blk),
			Data:        f.Data[off:end],
		}
		sec, err := ddb.Encode()
		if err != nil {
			return nil, err
		}
		out = append(out, sec)
		off = end
		if len(f.Data) == 0 {
			break
		}
	}
	return out, nil
}

// sectionWireBytes is the on-air cost of one section: full 188-byte TS
// packets, the first carrying a pointer field.
func sectionWireBytes(sectionLen int) int64 {
	// First packet holds 183 payload bytes (pointer field), the rest 184.
	if sectionLen <= mpegts.MaxPayload-1 {
		return mpegts.PacketSize
	}
	rest := sectionLen - (mpegts.MaxPayload - 1)
	pkts := 1 + (rest+mpegts.MaxPayload-1)/mpegts.MaxPayload
	return int64(pkts) * mpegts.PacketSize
}

// LayoutEntry records where one module's block run sits within a cycle,
// in wire bytes.
type LayoutEntry struct {
	Name      string
	Version   uint8
	WireStart int64
	WireEnd   int64
	// Hash is the module's content address (zero with the hash
	// extension disabled).
	Hash ModuleHash
	// Changed marks modules whose content changed in the SetFiles this
	// layout was computed from — the delta re-air set.
	Changed bool
	// Data is the module's content: the slice SetFiles was handed, not a
	// copy. It is what the Broadcaster delivers, so every receiver of
	// this generation shares it and nobody may write to it. Its capacity
	// is clipped to its length, so an append reallocates.
	Data []byte
}

// Layout is the wire-byte schedule of one carousel cycle. Offset 0 is
// the start of the DII. A Layout is never modified once published.
type Layout struct {
	Generation uint32
	CycleWire  int64
	// DIIWire is the on-air cost of the directory section alone; a
	// cache-warm receiver converges after hearing just this much.
	DIIWire int64
	// DeltaWire is the wire cost of one delta re-air (DII + changed
	// modules), and ChangedModules counts the modules it carries.
	DeltaWire      int64
	ChangedModules int
	Entries        []LayoutEntry
	// Completion, if set, replaces NextCompletion's contiguous-module
	// rule for a carrier that arranges a cycle differently (flute's
	// interleaved datagrams). It returns, as an offset from the start of
	// the cycle the receiver tuned in at, where a receiver that began
	// listening inCycle bytes into that cycle holds all of e.
	Completion func(e *LayoutEntry, inCycle int64) int64
	byName     map[string]*LayoutEntry
}

// NewLayout returns l with its entries indexed by name: the last step
// of computing a schedule, Carousel.Layout's or another carrier's.
func NewLayout(l Layout) *Layout {
	l.byName = make(map[string]*LayoutEntry, len(l.Entries))
	for i := range l.Entries {
		l.byName[l.Entries[i].Name] = &l.Entries[i]
	}
	return &l
}

// Layout computes the current cycle's schedule without encoding payload
// bytes (sizes are derived from the framing rules, so it matches
// EncodeCycle exactly; a test asserts this).
func (c *Carousel) Layout() (*Layout, error) {
	if len(c.files) == 0 {
		return nil, errors.New("dsmcc: empty carousel")
	}
	dii, err := c.DII().Encode()
	if err != nil {
		return nil, err
	}
	l := Layout{Generation: c.generation, Entries: make([]LayoutEntry, 0, len(c.files))}
	pos := sectionWireBytes(len(dii))
	l.DIIWire = pos
	l.DeltaWire = pos
	for _, f := range c.files {
		e := LayoutEntry{
			Name:      f.Name,
			Version:   c.versions[f.Name],
			WireStart: pos,
			Changed:   c.changed[f.Name],
			Data:      f.Data[:len(f.Data):len(f.Data)],
		}
		if !c.noHashExt {
			e.Hash = c.hashes[f.Name]
		}
		blocks := (len(f.Data) + c.blockSize - 1) / c.blockSize
		if blocks == 0 {
			blocks = 1
		}
		for b := 0; b < blocks; b++ {
			sz := c.blockSize
			if b == blocks-1 {
				sz = len(f.Data) - b*c.blockSize
			}
			secLen := 3 + 5 + ddbHeaderLen + sz + 4 // section framing + DDB header + data + CRC
			pos += sectionWireBytes(secLen)
		}
		e.WireEnd = pos
		if e.Changed {
			l.DeltaWire += pos - e.WireStart
			l.ChangedModules++
		}
		l.Entries = append(l.Entries, e)
	}
	l.CycleWire = pos
	return NewLayout(l), nil
}

// Entry looks up a file's layout entry.
func (l *Layout) Entry(name string) (*LayoutEntry, bool) {
	e, ok := l.byName[name]
	return e, ok
}

// ReceiverStrategy selects how a receiver assembles a module from the
// cyclic stream.
type ReceiverStrategy int

const (
	// FileGranularity waits for the next transmission of the module that
	// starts after the receiver begins listening — the behaviour the
	// paper describes ("the access is delayed until the next data
	// retransmission for that particular file"), averaging 1.5 cycles
	// when one file dominates the carousel.
	FileGranularity ReceiverStrategy = iota
	// BlockCache caches blocks from the moment the receiver starts
	// listening, accepting an out-of-order tail + head; it completes in
	// at most one full cycle.
	BlockCache
)

// NextCompletion computes, in wire bytes since cycle origin, when a
// receiver that starts listening at byte position pos will have fully
// assembled the named module. The second return is false if the file is
// not in the carousel.
func (l *Layout) NextCompletion(name string, pos int64, strategy ReceiverStrategy) (int64, bool) {
	e, ok := l.byName[name]
	if !ok {
		return 0, false
	}
	w := l.CycleWire
	k := pos / w
	inCycle := pos - k*w
	if l.Completion != nil {
		return k*w + l.Completion(e, inCycle), true
	}
	switch strategy {
	case BlockCache:
		if inCycle > e.WireStart && inCycle < e.WireEnd {
			// Mid-module: tail this cycle, missed head next cycle.
			return pos + w, true
		}
		fallthrough
	default:
		// Next instance whose start is ≥ pos.
		if inCycle <= e.WireStart {
			return k*w + e.WireEnd, true
		}
		return (k+1)*w + e.WireEnd, true
	}
}

// NextDirectory computes, in wire bytes since cycle origin, when a
// receiver that starts listening at byte position pos has heard one
// whole directory section: all a receiver whose cache already holds a
// module's advertised content needs.
func (l *Layout) NextDirectory(pos int64) int64 {
	w := l.CycleWire
	k := pos / w
	if pos > k*w {
		k++ // mid-cycle: the next DII starts a cycle later
	}
	return k*w + l.DIIWire
}
