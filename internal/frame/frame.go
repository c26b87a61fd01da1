// Package frame is the one binary container every durable artefact in
// this repository is written in -- the ATPG checkpoint (ATPGCKPT), the
// result-cache entry (RESCACHE) and the cached ATPG result payload
// (ATPGRSLT) -- plus the canonical decoder their bodies are read with
// and the only FNV-1a/64 implementation (frame trailers, the ATPG
// identity hashes and resultcache.ParamsHash all share it).
//
// A sealed frame is
//
//	magic    len(magic) bytes
//	version  uint32 LE
//	body     caller-defined
//	sum      FNV-1a/64 over everything above, uint64 LE
//
// Open checks the magic and the checksum before it hands the version
// and body back, so a frame either decodes to exactly what was sealed
// or is rejected; the caller decides what its version means.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Seal wraps body in a checksummed frame.
func Seal(magic string, version uint32, body []byte) []byte {
	buf := make([]byte, 0, len(magic)+4+len(body)+8)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = append(buf, body...)
	return binary.LittleEndian.AppendUint64(buf, NewFNV().Bytes(buf).Sum())
}

// Open verifies data is a sealed frame with the given magic and an
// intact checksum, and returns its version and body (a subslice of
// data). Every error describes corruption: truncation, a foreign magic,
// or a checksum mismatch. Version checks are the caller's.
func Open(data []byte, magic string) (version uint32, body []byte, err error) {
	head := len(magic) + 4
	if len(data) < head+8 {
		return 0, nil, fmt.Errorf("%d bytes", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, nil, errors.New("bad magic")
	}
	sealed, trailer := data[:len(data)-8], data[len(data)-8:]
	if NewFNV().Bytes(sealed).Sum() != binary.LittleEndian.Uint64(trailer) {
		return 0, nil, errors.New("checksum mismatch")
	}
	return binary.LittleEndian.Uint32(data[len(magic):]), sealed[head:], nil
}

// FNV is a running FNV-1a/64 hash in value style: every method returns
// the extended hash, so fingerprints chain.
//
//	h := frame.NewFNV().U64(uint64(n)).Str(name)
type FNV uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewFNV returns the FNV-1a/64 offset basis.
func NewFNV() FNV { return fnvOffset64 }

// Bytes mixes p into the hash.
func (h FNV) Bytes(p []byte) FNV {
	x := uint64(h)
	for _, b := range p {
		x ^= uint64(b)
		x *= fnvPrime64
	}
	return FNV(x)
}

// Str mixes the bytes of s into the hash.
func (h FNV) Str(s string) FNV {
	x := uint64(h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime64
	}
	return FNV(x)
}

// U64 mixes v into the hash as 8 little-endian bytes.
func (h FNV) U64(v uint64) FNV {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return h.Bytes(b[:])
}

// Sum returns the hash value.
func (h FNV) Sum() uint64 { return uint64(h) }

// Reader is a bounds- and canonicality-checked decoder over one frame
// body. The first failure latches: every later accessor is a no-op
// returning zero, and callers test OK once at the end, so a decoder
// reads like the encoder that produced the bytes and never panics on
// arbitrary input.
type Reader struct {
	data []byte
	pos  int
	bad  bool
}

// NewReader starts a Reader at the beginning of body.
func NewReader(body []byte) *Reader { return &Reader{data: body} }

// OK reports whether every read so far succeeded.
func (r *Reader) OK() bool { return !r.bad }

// Fail latches a failure the caller detected in otherwise well-formed
// bytes (an out-of-range value, non-zero padding).
func (r *Reader) Fail() { r.bad = true }

// Remaining is the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.pos }

// Byte reads one byte.
func (r *Reader) Byte() uint8 {
	if r.bad || r.pos >= len(r.data) {
		r.bad = true
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Fixed64 reads a little-endian uint64.
func (r *Reader) Fixed64() uint64 {
	if r.bad || r.Remaining() < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

// Bytes reads the next n bytes as a subslice of the body.
func (r *Reader) Bytes(n int) []byte {
	if r.bad || n < 0 || n > r.Remaining() {
		r.bad = true
		return nil
	}
	b := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	return b
}

// Uvarint reads a canonical (minimal-length) unsigned varint no greater
// than limit.
func (r *Reader) Uvarint(limit uint64) uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || n != uvarintLen(v) || v > limit {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a canonical signed varint in [lo, hi].
func (r *Reader) Varint(lo, hi int64) int64 {
	if r.bad {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	if n <= 0 || n != uvarintLen(ux) || v < lo || v > hi {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// uvarintLen is the minimal encoded length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
