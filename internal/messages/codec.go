// Package messages defines every wire message exchanged by SplitBFT and the
// PBFT baseline, together with a deterministic, hand-rolled binary codec.
//
// Determinism matters: protocol digests (request digests, batch digests,
// checkpoint digests) and signatures are computed over encoded bytes, so the
// same logical message must always encode to the same bytes. The codec is a
// simple little-endian, length-prefixed format with no reflection, mirroring
// the serde-based serialization the paper's implementation uses across the
// enclave boundary (§5).
package messages

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/splitbft/splitbft/internal/crypto"
)

// maxLen caps every length prefix read by the decoder so malformed or
// malicious inputs cannot trigger huge allocations.
const maxLen = 1 << 26 // 64 MiB

// Element-count limits, shared by the decoders and the structural check
// (Check) so the two cannot disagree on them.
const (
	// maxVotes bounds lists with one entry per replica: the MACs of a
	// request, the votes of a certificate, the ViewChanges of a NewView.
	maxVotes = 4096
	// maxSlots bounds lists with one entry per request or sequence number:
	// the requests of a batch, the certificates of a ViewChange, the
	// re-issued PrePrepares of a NewView.
	maxSlots = 1 << 16
)

// ErrDecode wraps all decoding failures.
var ErrDecode = errors.New("messages: decode error")

// Encoder appends primitive values to a growing byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with the given capacity hint.
func NewEncoder(sizeHint int) *Encoder {
	return &Encoder{buf: make([]byte, 0, sizeHint)}
}

// encoderPool recycles Encoders for encode-hash-discard and
// encode-verify-discard uses on the hot path (digests, signing bytes),
// where the buffer never outlives the call. Roughly half of all protocol
// encodes are of this shape.
var encoderPool = sync.Pool{New: func() any { return NewEncoder(256) }}

// GetEncoder returns a pooled Encoder, reset and ready for use. Callers
// MUST NOT let the buffer escape: hand it back with PutEncoder once the
// encoded bytes have been consumed (hashed, verified, copied). For buffers
// whose ownership transfers to the caller, use NewEncoder instead.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns a pooled Encoder. The encoded bytes become invalid.
func PutEncoder(e *Encoder) {
	// Do not pool pathological buffers (e.g. a full state snapshot): keep
	// the pool's steady-state footprint small.
	if cap(e.buf) <= 1<<16 {
		encoderPool.Put(e)
	}
}

// Reset truncates the encoder to empty, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends a single byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// VarBytes appends a uint32 length prefix followed by b.
func (e *Encoder) VarBytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// VarAppend appends a VarBytes field whose content fill appends in place:
// the bytes VarBytes(fill(nil)) writes, without the intermediate buffer.
func (e *Encoder) VarAppend(fill func(dst []byte) []byte) {
	start := e.beginVar()
	e.buf = fill(e.buf)
	e.endVar(start)
}

// VarMessage appends m as VarBytes(Marshal(m)) would, encoded in place.
func (e *Encoder) VarMessage(m Message) {
	start := e.beginVar()
	e.U8(uint8(m.MsgType()))
	m.encodeBody(e)
	e.endVar(start)
}

// beginVar reserves a VarBytes length prefix and returns where the content
// starts; endVar fills the prefix in once the content is appended.
func (e *Encoder) beginVar() int {
	e.U32(0)
	return len(e.buf)
}

func (e *Encoder) endVar(start int) {
	binary.LittleEndian.PutUint32(e.buf[start-4:start], uint32(len(e.buf)-start))
}

// Digest appends a fixed-size digest with no length prefix.
func (e *Encoder) Digest(d crypto.Digest) {
	e.buf = append(e.buf, d[:]...)
}

// MAC appends a fixed-size HMAC value.
func (e *Encoder) MAC(m [crypto.MACSize]byte) {
	e.buf = append(e.buf, m[:]...)
}

// Decoder consumes primitive values from a byte buffer. Errors are sticky:
// after the first failure all further reads return zero values and Err
// reports the original error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps data for decoding. The decoder does not copy data;
// callers must not mutate it during decoding.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or trailing bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrDecode, fmt.Sprintf(format, args...))
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail("need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a single byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean encoded as one byte; any non-zero byte is true.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// VarBytes reads a length-prefixed byte slice. The result is a copy, so it
// stays valid after the input buffer is reused.
func (d *Decoder) VarBytes() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > maxLen {
		d.fail("length %d exceeds limit %d", n, maxLen)
		return nil
	}
	if n == 0 {
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Digest reads a fixed-size digest.
func (d *Decoder) Digest() crypto.Digest {
	var out crypto.Digest
	b := d.take(crypto.DigestSize)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// MAC reads a fixed-size HMAC value.
func (d *Decoder) MAC() [crypto.MACSize]byte {
	var out [crypto.MACSize]byte
	b := d.take(crypto.MACSize)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// Count reads a uint32 element count, bounding it by maxCount.
func (d *Decoder) Count(maxCount int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if int64(n) > int64(maxCount) {
		d.fail("count %d exceeds limit %d", n, maxCount)
		return 0
	}
	return int(n)
}
