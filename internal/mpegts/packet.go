// Package mpegts implements the subset of the MPEG-2 transport stream
// (ISO/IEC 13818-1) that a DTV data service needs: 188-byte TS packets,
// PSI section framing with CRC-32/MPEG-2, section packetization and
// reassembly, and a round-robin multiplexer over fixed PIDs. The DSM-CC
// object carousel (internal/dsmcc) and the AIT (internal/ait) ride on
// these sections, exactly as in a real OddCI-DTV transmission chain.
package mpegts

import (
	"errors"
	"fmt"
)

const (
	// PacketSize is the fixed TS packet size in bytes.
	PacketSize = 188
	// SyncByte begins every TS packet.
	SyncByte = 0x47
	// MaxPayload is the payload capacity of a packet without an
	// adaptation field.
	MaxPayload = PacketSize - 4
)

// Errors returned by packet parsing.
var (
	ErrBadSync   = errors.New("mpegts: missing sync byte")
	ErrShort     = errors.New("mpegts: truncated packet")
	ErrBadHeader = errors.New("mpegts: malformed header")
)

// Packet is a decoded transport-stream packet.
type Packet struct {
	TransportError bool
	PUSI           bool // payload_unit_start_indicator
	Priority       bool
	PID            uint16
	Scrambling     uint8
	Continuity     uint8 // 4-bit continuity counter
	// Adaptation holds the adaptation field body (after its length
	// byte), nil if absent. Stuffing-only fields are preserved.
	Adaptation []byte
	// Payload holds the payload bytes, nil if absent.
	Payload []byte
}

// Marshal encodes p into exactly 188 bytes. Payloads shorter than the
// remaining space are padded with adaptation-field stuffing, as the
// standard requires.
func (p *Packet) Marshal() ([]byte, error) {
	if p.PID > 0x1FFF {
		return nil, fmt.Errorf("mpegts: PID %#x out of range", p.PID)
	}
	if p.Continuity > 0x0F {
		return nil, fmt.Errorf("mpegts: continuity counter %d out of range", p.Continuity)
	}
	buf := make([]byte, PacketSize)
	buf[0] = SyncByte
	b1 := byte(p.PID >> 8 & 0x1F)
	if p.TransportError {
		b1 |= 0x80
	}
	if p.PUSI {
		b1 |= 0x40
	}
	if p.Priority {
		b1 |= 0x20
	}
	buf[1] = b1
	buf[2] = byte(p.PID)

	hasPayload := p.Payload != nil
	af := p.Adaptation
	hasAF := af != nil

	if hasPayload {
		used := len(p.Payload)
		if hasAF {
			used += 1 + len(af)
		}
		if used > MaxPayload {
			return nil, fmt.Errorf("mpegts: payload %d bytes does not fit", len(p.Payload))
		}
		// Absorb slack with adaptation-field stuffing, as the standard
		// requires for short payloads.
		if slack := MaxPayload - used; slack > 0 {
			if !hasAF {
				hasAF = true
				slack-- // the adaptation_field_length byte itself
				if slack > 0 {
					af = make([]byte, slack)
					af[0] = 0x00 // no flags
					for i := 1; i < slack; i++ {
						af[i] = 0xFF
					}
				} else {
					af = []byte{}
				}
			} else {
				padded := make([]byte, len(af), len(af)+slack)
				copy(padded, af)
				for i := 0; i < slack; i++ {
					padded = append(padded, 0xFF)
				}
				af = padded
			}
		}
	} else if hasAF {
		// Adaptation-only packet: the field fills the packet.
		if len(af) > PacketSize-5 {
			return nil, fmt.Errorf("mpegts: adaptation field %d bytes too long", len(af))
		}
		padded := make([]byte, PacketSize-5)
		copy(padded, af)
		for i := len(af); i < len(padded); i++ {
			padded[i] = 0xFF
		}
		if len(af) == 0 {
			padded[0] = 0x00
		}
		af = padded
	} else {
		return nil, errors.New("mpegts: packet with neither adaptation field nor payload")
	}

	afc := byte(0)
	if hasAF {
		afc |= 0x2
	}
	if hasPayload {
		afc |= 0x1
	}
	buf[3] = p.Scrambling<<6 | afc<<4 | p.Continuity

	pos := 4
	if hasAF {
		buf[pos] = byte(len(af))
		pos++
		copy(buf[pos:], af)
		pos += len(af)
	}
	if hasPayload {
		copy(buf[pos:], p.Payload)
	}
	return buf, nil
}

// ParsePacket decodes a 188-byte TS packet.
func ParsePacket(b []byte) (*Packet, error) {
	if len(b) < PacketSize {
		return nil, ErrShort
	}
	b = b[:PacketSize]
	if b[0] != SyncByte {
		return nil, ErrBadSync
	}
	p := &Packet{
		TransportError: b[1]&0x80 != 0,
		PUSI:           b[1]&0x40 != 0,
		Priority:       b[1]&0x20 != 0,
		PID:            uint16(b[1]&0x1F)<<8 | uint16(b[2]),
		Scrambling:     b[3] >> 6,
		Continuity:     b[3] & 0x0F,
	}
	afc := b[3] >> 4 & 0x3
	if afc == 0 {
		return nil, ErrBadHeader
	}
	pos := 4
	if afc&0x2 != 0 {
		afLen := int(b[pos])
		pos++
		if pos+afLen > PacketSize {
			return nil, ErrBadHeader
		}
		p.Adaptation = b[pos : pos+afLen]
		pos += afLen
	}
	if afc&0x1 != 0 {
		p.Payload = b[pos:]
	}
	return p, nil
}
