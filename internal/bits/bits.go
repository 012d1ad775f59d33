// Package bits provides big-endian bit-level readers and writers used by
// the MPEG-2 / DSM-CC / AIT table codecs, where fields routinely straddle
// byte boundaries (13-bit PIDs, 12-bit lengths, 5-bit versions, ...).
package bits

import (
	"errors"
	"fmt"
)

// ErrOverrun is returned when a read requests more bits than remain.
var ErrOverrun = errors.New("bits: read past end of input")

// Writer accumulates bits MSB-first into a byte buffer.
type Writer struct {
	buf  []byte
	bit  uint // bits used in the final byte (0..7); 0 means byte-aligned
	errs []error
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Write appends the low n bits of v, most significant first. n must be in
// [0, 64] and v must fit in n bits; violations are recorded and surfaced
// by Err.
func (w *Writer) Write(v uint64, n int) {
	if n < 0 || n > 64 {
		w.errs = append(w.errs, fmt.Errorf("bits: invalid width %d", n))
		return
	}
	if n < 64 && v >= 1<<uint(n) {
		w.errs = append(w.errs, fmt.Errorf("bits: value %d overflows %d bits", v, n))
		return
	}
	for n > 0 {
		if w.bit == 0 {
			w.buf = append(w.buf, 0)
		}
		free := 8 - w.bit
		take := uint(n)
		if take > free {
			take = free
		}
		shift := uint(n) - take
		chunk := byte(v >> shift & (1<<take - 1))
		w.buf[len(w.buf)-1] |= chunk << (free - take)
		w.bit = (w.bit + take) % 8
		n -= int(take)
	}
}

// WriteBytes appends p; the writer must be byte-aligned.
func (w *Writer) WriteBytes(p []byte) {
	if w.bit != 0 {
		w.errs = append(w.errs, errors.New("bits: WriteBytes while unaligned"))
		return
	}
	w.buf = append(w.buf, p...)
}

// Bytes returns the accumulated buffer. The writer must be byte-aligned.
func (w *Writer) Bytes() []byte {
	if w.bit != 0 {
		w.errs = append(w.errs, errors.New("bits: Bytes while unaligned"))
	}
	return w.buf
}

// Err returns the first recorded usage error, if any.
func (w *Writer) Err() error {
	if len(w.errs) > 0 {
		return w.errs[0]
	}
	return nil
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos uint // bit position
}

// NewReader wraps p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Read consumes n bits (0..64) and returns them right-aligned.
func (r *Reader) Read(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bits: invalid width %d", n)
	}
	if r.Remaining() < n {
		return 0, ErrOverrun
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos / 8
		bitOff := r.pos % 8
		avail := 8 - bitOff
		take := uint(n)
		if take > avail {
			take = avail
		}
		chunk := r.buf[byteIdx] >> (avail - take) & (1<<take - 1)
		v = v<<take | uint64(chunk)
		r.pos += take
		n -= int(take)
	}
	return v, nil
}

// Skip discards n bits.
func (r *Reader) Skip(n int) error {
	if r.Remaining() < n {
		return ErrOverrun
	}
	r.pos += uint(n)
	return nil
}

// Remaining reports how many bits are left.
func (r *Reader) Remaining() int { return len(r.buf)*8 - int(r.pos) }
