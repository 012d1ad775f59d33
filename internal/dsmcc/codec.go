// Package dsmcc implements the DSM-CC data/object carousel (ISO/IEC
// 13818-6) to the depth an OddCI-DTV deployment needs: a set of named
// files is chunked into versioned modules, described by a
// DownloadInfoIndication (DII), carried in DownloadDataBlocks (DDB), and
// transmitted cyclically so receivers tuning in at any time eventually
// assemble every file. The cyclic schedule is what produces the paper's
// 1.5·I/β expected wakeup time.
//
// Simplification vs. the full standard: BIOP object binding is replaced
// by a name field in the DII's module info, and the dsmccMessageHeader is
// reduced to the fields this system consumes. The section/TS framing
// below these messages is the real MPEG-2 encoding from internal/mpegts.
package dsmcc

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"oddci/internal/mpegts"
)

// DefaultBlockSize is the DDB payload size used unless configured
// otherwise; it keeps each block within a single section.
const DefaultBlockSize = 4000

// maxBlockSize keeps a DDB message inside one section payload.
const maxBlockSize = mpegts.MaxSectionPayload - ddbHeaderLen

const (
	diiHeaderLen = 12 // transactionId(4) downloadId(4) blockSize(2) numModules(2)
	diiModuleLen = 8  // moduleId(2) version(1) size(4) nameLen(1), then the name
	ddbHeaderLen = 9  // downloadId(4) moduleId(2) version(1) blockNumber(2)
)

// ModuleHash is the content address of one module's bytes: SHA-256
// truncated to a fixed 8-byte wire field. Truncation keeps the DII
// within its one-section budget; at 64 bits an accidental collision
// needs ~2³² distinct module contents on one carousel, far beyond any
// deployment here. Zero means "no hash known" (a pre-hash sender or a
// module whose hash was never computed); HashOf never returns zero.
type ModuleHash uint64

// HashLen is the wire size of a ModuleHash.
const HashLen = 8

// diiHashExtTag introduces the hash extension appended after a DII's
// module list. Pre-hash decoders read exactly numModules entries and
// ignore trailing payload bytes, so the extension is invisible to them.
const diiHashExtTag = 0x01

// HashOf content-addresses data. The zero value is reserved as "no
// hash", so the (astronomically unlikely) all-zero truncation is mapped
// to 1.
func HashOf(data []byte) ModuleHash {
	sum := sha256.Sum256(data)
	h := ModuleHash(binary.BigEndian.Uint64(sum[:HashLen]))
	if h == 0 {
		h = 1
	}
	return h
}

// String renders the hash as fixed-width hex.
func (h ModuleHash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// NewerGeneration reports whether generation a is newer than b under
// serial-number arithmetic (RFC 1982): a is newer iff (a-b) mod 2³²
// lies in (0, 2³¹). This is how receivers must compare DII
// TransactionIDs — a plain a > b stalls forever when a long-lived
// carousel wraps 2³²→0, and accepts ancient stragglers as fresh.
// Exactly opposite values (distance 2³¹) are incomparable and report
// false in both directions.
func NewerGeneration(a, b uint32) bool {
	return a != b && a-b < 1<<31
}

// ModuleInfo describes one module (one file) within a DII.
type ModuleInfo struct {
	ID      uint16
	Version uint8
	Size    uint32
	Name    string
	// Hash is the module's content address, or zero when the sender did
	// not provide one.
	Hash ModuleHash
}

// DII is the DownloadInfoIndication: the carousel's directory.
type DII struct {
	// TransactionID identifies the carousel generation; receivers treat
	// a change as "new content available".
	TransactionID uint32
	DownloadID    uint32
	BlockSize     uint16
	Modules       []ModuleInfo
}

// Encode serializes the DII into a section (table id 0x3B).
func (d *DII) Encode() ([]byte, error) {
	if len(d.Modules) > 0xFFFF {
		return nil, errors.New("dsmcc: too many modules")
	}
	buf := make([]byte, 0, diiHeaderLen+16*len(d.Modules))
	buf = binary.BigEndian.AppendUint32(buf, d.TransactionID)
	buf = binary.BigEndian.AppendUint32(buf, d.DownloadID)
	buf = binary.BigEndian.AppendUint16(buf, d.BlockSize)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.Modules)))
	hashed := false
	for _, m := range d.Modules {
		if len(m.Name) > 255 {
			return nil, fmt.Errorf("dsmcc: module name %q too long", m.Name)
		}
		buf = binary.BigEndian.AppendUint16(buf, m.ID)
		buf = append(buf, m.Version)
		buf = binary.BigEndian.AppendUint32(buf, m.Size)
		buf = append(buf, byte(len(m.Name)))
		buf = append(buf, m.Name...)
		if m.Hash != 0 {
			hashed = true
		}
	}
	if hashed {
		// Content-hash extension: appended after the module list so
		// pre-hash decoders (which stop after numModules entries) skip it.
		buf = append(buf, diiHashExtTag)
		for _, m := range d.Modules {
			buf = binary.BigEndian.AppendUint64(buf, uint64(m.Hash))
		}
	}
	if len(buf) > mpegts.MaxSectionPayload {
		return nil, errors.New("dsmcc: DII exceeds one section; split the carousel")
	}
	s := &mpegts.Section{
		TableID:     mpegts.TableIDDSMCCDII,
		TableIDExt:  uint16(d.TransactionID & 0xFFFF),
		Version:     uint8(d.TransactionID & 0x1F),
		CurrentNext: true,
		Payload:     buf,
	}
	return s.Encode()
}

// DecodeDII parses a DII section.
func DecodeDII(raw []byte) (*DII, error) {
	s, _, err := mpegts.DecodeSection(raw)
	if err != nil {
		return nil, err
	}
	if s.TableID != mpegts.TableIDDSMCCDII {
		return nil, fmt.Errorf("dsmcc: table id %#x is not a DII", s.TableID)
	}
	b := s.Payload
	if len(b) < diiHeaderLen {
		return nil, errors.New("dsmcc: truncated DII")
	}
	d := &DII{
		TransactionID: binary.BigEndian.Uint32(b[0:]),
		DownloadID:    binary.BigEndian.Uint32(b[4:]),
		BlockSize:     binary.BigEndian.Uint16(b[8:]),
	}
	n := int(binary.BigEndian.Uint16(b[10:]))
	b = b[diiHeaderLen:]
	for i := 0; i < n; i++ {
		if len(b) < 8 {
			return nil, errors.New("dsmcc: truncated DII module info")
		}
		m := ModuleInfo{
			ID:      binary.BigEndian.Uint16(b[0:]),
			Version: b[2],
			Size:    binary.BigEndian.Uint32(b[3:]),
		}
		nameLen := int(b[7])
		b = b[8:]
		if len(b) < nameLen {
			return nil, errors.New("dsmcc: truncated DII module name")
		}
		m.Name = string(b[:nameLen])
		b = b[nameLen:]
		d.Modules = append(d.Modules, m)
	}
	// Optional content-hash extension. A malformed or unknown trailer is
	// ignored (hashes stay zero) — that is the legacy decoder's behaviour
	// too, so mixed-version carousels degrade instead of erroring.
	if len(b) >= 1+HashLen*n && b[0] == diiHashExtTag {
		b = b[1:]
		for i := 0; i < n; i++ {
			d.Modules[i].Hash = ModuleHash(binary.BigEndian.Uint64(b[i*HashLen:]))
		}
	}
	return d, nil
}

// DDB is one DownloadDataBlock: a chunk of one module.
type DDB struct {
	DownloadID  uint32
	ModuleID    uint16
	Version     uint8
	BlockNumber uint16
	Data        []byte
}

// Encode serializes the DDB into a section (table id 0x3C).
func (d *DDB) Encode() ([]byte, error) {
	if len(d.Data) > maxBlockSize {
		return nil, fmt.Errorf("dsmcc: block of %d bytes exceeds %d", len(d.Data), maxBlockSize)
	}
	buf := make([]byte, 0, ddbHeaderLen+len(d.Data))
	buf = binary.BigEndian.AppendUint32(buf, d.DownloadID)
	buf = binary.BigEndian.AppendUint16(buf, d.ModuleID)
	buf = append(buf, d.Version)
	buf = binary.BigEndian.AppendUint16(buf, d.BlockNumber)
	buf = append(buf, d.Data...)
	s := &mpegts.Section{
		TableID:     mpegts.TableIDDSMCCDDB,
		TableIDExt:  d.ModuleID,
		Version:     d.Version & 0x1F,
		CurrentNext: true,
		Number:      uint8(d.BlockNumber & 0xFF),
		LastNumber:  0xFF,
		Payload:     buf,
	}
	return s.Encode()
}

// DecodeDDB parses a DDB section.
func DecodeDDB(raw []byte) (*DDB, error) {
	s, _, err := mpegts.DecodeSection(raw)
	if err != nil {
		return nil, err
	}
	if s.TableID != mpegts.TableIDDSMCCDDB {
		return nil, fmt.Errorf("dsmcc: table id %#x is not a DDB", s.TableID)
	}
	b := s.Payload
	if len(b) < ddbHeaderLen {
		return nil, errors.New("dsmcc: truncated DDB")
	}
	return &DDB{
		DownloadID:  binary.BigEndian.Uint32(b[0:]),
		ModuleID:    binary.BigEndian.Uint16(b[4:]),
		Version:     b[6],
		BlockNumber: binary.BigEndian.Uint16(b[7:]),
		Data:        b[ddbHeaderLen:],
	}, nil
}
