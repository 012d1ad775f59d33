package mpegts

import (
	"encoding/binary"
	"errors"
	"fmt"

	"oddci/internal/bits"
	"oddci/internal/crc"
)

// Table IDs of the sections this system carries.
const (
	TableIDDSMCCDII = 0x3B // DSM-CC U-N messages (DownloadInfoIndication)
	TableIDDSMCCDDB = 0x3C // DSM-CC download data (DownloadDataBlock)
	TableIDAIT      = 0x74
)

// Section framing constants.
const (
	// MaxSectionLength is the largest value of the 12-bit section length
	// field for private/DSM-CC sections.
	MaxSectionLength = 4093
	// sectionHeaderLen counts bytes before the payload in a long-form
	// section (table_id through last_section_number).
	sectionHeaderLen = 8
	// MaxSectionPayload is the payload capacity of one long-form
	// section: length field covers 5 header bytes + payload + 4 CRC.
	MaxSectionPayload = MaxSectionLength - 5 - 4
)

// Section is a long-form (section_syntax_indicator = 1) PSI/private
// section, the container used by the AIT and all DSM-CC messages.
type Section struct {
	TableID     uint8
	TableIDExt  uint16
	Version     uint8 // 5 bits
	CurrentNext bool
	Number      uint8
	LastNumber  uint8
	Payload     []byte
}

// Encode serializes the section, computing its CRC-32/MPEG-2.
func (s *Section) Encode() ([]byte, error) {
	if len(s.Payload) > MaxSectionPayload {
		return nil, fmt.Errorf("mpegts: section payload %d exceeds %d", len(s.Payload), MaxSectionPayload)
	}
	if s.Version > 31 {
		return nil, fmt.Errorf("mpegts: version %d exceeds 5 bits", s.Version)
	}
	length := 5 + len(s.Payload) + 4
	w := bits.NewWriter()
	w.Write(uint64(s.TableID), 8)
	w.Write(1, 1) // section_syntax_indicator
	w.Write(1, 1) // private_indicator
	w.Write(3, 2) // reserved
	w.Write(uint64(length), 12)
	w.Write(uint64(s.TableIDExt), 16)
	w.Write(3, 2) // reserved
	w.Write(uint64(s.Version), 5)
	cn := uint64(0)
	if s.CurrentNext {
		cn = 1
	}
	w.Write(cn, 1)
	w.Write(uint64(s.Number), 8)
	w.Write(uint64(s.LastNumber), 8)
	w.WriteBytes(s.Payload)
	if err := w.Err(); err != nil {
		return nil, err
	}
	body := w.Bytes()
	sum := crc.Checksum(body)
	out := make([]byte, len(body)+4)
	copy(out, body)
	binary.BigEndian.PutUint32(out[len(body):], sum)
	return out, nil
}

// Errors returned by DecodeSection.
var (
	ErrSectionShort = errors.New("mpegts: truncated section")
	ErrSectionCRC   = errors.New("mpegts: section CRC mismatch")
)

// DecodeSection parses one section from the front of b, verifying its
// CRC. It returns the section and the total encoded length consumed.
func DecodeSection(b []byte) (*Section, int, error) {
	if len(b) < 3 {
		return nil, 0, ErrSectionShort
	}
	r := bits.NewReader(b)
	tableID, _ := r.Read(8)
	ssi, _ := r.Read(1)
	r.Skip(1)
	r.Skip(2)
	length, _ := r.Read(12)
	total := 3 + int(length)
	if len(b) < total {
		return nil, 0, ErrSectionShort
	}
	if !crc.SelfCheck(b[:total]) {
		return nil, 0, ErrSectionCRC
	}
	if ssi != 1 {
		return nil, 0, errors.New("mpegts: short-form sections unsupported")
	}
	if length < 9 {
		return nil, 0, ErrSectionShort
	}
	ext, _ := r.Read(16)
	r.Skip(2)
	version, _ := r.Read(5)
	cn, _ := r.Read(1)
	num, _ := r.Read(8)
	last, _ := r.Read(8)
	payload := b[sectionHeaderLen : total-4]
	return &Section{
		TableID:     uint8(tableID),
		TableIDExt:  uint16(ext),
		Version:     uint8(version),
		CurrentNext: cn == 1,
		Number:      uint8(num),
		LastNumber:  uint8(last),
		Payload:     payload,
	}, total, nil
}

// PacketizeSection splits one encoded section into TS packets on pid.
// Each section starts a fresh packet (pointer_field = 0); the final
// packet's tail is stuffed with 0xFF as PSI rules allow. cc is the
// continuity counter of the first packet; the next counter value is
// returned.
func PacketizeSection(pid uint16, cc uint8, section []byte) ([]*Packet, uint8, error) {
	if len(section) == 0 {
		return nil, cc, errors.New("mpegts: empty section")
	}
	var pkts []*Packet
	first := true
	rest := section
	for len(rest) > 0 {
		capacity := MaxPayload
		var payload []byte
		if first {
			capacity-- // pointer_field
			n := min(capacity, len(rest))
			payload = make([]byte, 1+n, MaxPayload)
			payload[0] = 0 // pointer_field: section starts immediately
			copy(payload[1:], rest[:n])
			rest = rest[n:]
		} else {
			n := min(capacity, len(rest))
			payload = make([]byte, n, MaxPayload)
			copy(payload, rest[:n])
			rest = rest[n:]
		}
		for len(payload) < cap(payload) {
			payload = append(payload, 0xFF)
		}
		pkts = append(pkts, &Packet{PUSI: first, PID: pid, Continuity: cc & 0x0F, Payload: payload})
		cc = (cc + 1) & 0x0F
		first = false
	}
	return pkts, cc, nil
}

// Assembler reconstructs sections from the TS packets of one PID.
type Assembler struct {
	PID uint16

	buf     []byte
	lastCC  int // -1 before first packet
	started bool

	// Completed counts CRC-valid sections produced; Errors counts
	// discarded partials (continuity gaps, CRC failures).
	Completed int
	Errors    int
}

// NewAssembler returns an assembler for pid.
func NewAssembler(pid uint16) *Assembler {
	return &Assembler{PID: pid, lastCC: -1}
}

// Push feeds one packet and returns any sections completed by it (raw,
// CRC-verified bytes).
func (a *Assembler) Push(p *Packet) [][]byte {
	if p.PID != a.PID || p.Payload == nil {
		return nil
	}
	if a.lastCC >= 0 && int(p.Continuity) != (a.lastCC+1)&0x0F {
		// Continuity break: discard any partial section.
		if a.started {
			a.Errors++
		}
		a.buf = nil
		a.started = false
	}
	a.lastCC = int(p.Continuity)

	data := p.Payload
	if p.PUSI {
		if len(data) < 1 {
			return nil
		}
		ptr := int(data[0])
		if 1+ptr > len(data) {
			a.Errors++
			return nil
		}
		tail := data[1 : 1+ptr]
		if a.started {
			a.buf = append(a.buf, tail...)
		}
		out := a.drain()
		a.buf = append([]byte(nil), data[1+ptr:]...)
		a.started = true
		return append(out, a.drain()...)
	}
	if !a.started {
		return nil // waiting for a PUSI
	}
	a.buf = append(a.buf, data...)
	return a.drain()
}

// drain extracts all complete sections currently in the buffer.
func (a *Assembler) drain() [][]byte {
	var out [][]byte
	for {
		if len(a.buf) == 0 {
			return out
		}
		if a.buf[0] == 0xFF { // stuffing: rest of buffer is padding
			a.buf = nil
			a.started = false
			return out
		}
		if len(a.buf) < 3 {
			return out
		}
		length := int(a.buf[1]&0x0F)<<8 | int(a.buf[2])
		total := 3 + length
		if len(a.buf) < total {
			return out
		}
		sec := append([]byte(nil), a.buf[:total]...)
		a.buf = a.buf[total:]
		if crc.SelfCheck(sec) {
			a.Completed++
			out = append(out, sec)
		} else {
			a.Errors++
		}
	}
}
