package frame

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	body := []byte("some body")
	data := Seal("TESTMAGC", 7, body)
	if len(data) != 8+4+len(body)+8 {
		t.Fatalf("sealed length %d", len(data))
	}
	v, got, err := Open(data, "TESTMAGC")
	if err != nil || v != 7 || !bytes.Equal(got, body) {
		t.Fatalf("Open = %d, %q, %v", v, got, err)
	}
	// An empty body is a valid frame.
	if v, got, err := Open(Seal("M", 1, nil), "M"); err != nil || v != 1 || len(got) != 0 {
		t.Fatalf("empty body: %d, %q, %v", v, got, err)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	data := Seal("TESTMAGC", 1, []byte("payload"))
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"short", data[:19], "19 bytes"},
		{"magic", append([]byte("XESTMAGC"), data[8:]...), "bad magic"},
		{"body flip", flip(data, 13), "checksum mismatch"},
		{"version flip", flip(data, 8), "checksum mismatch"},
		{"trailer flip", flip(data, len(data)-1), "checksum mismatch"},
	} {
		if _, _, err := Open(tc.data, "TESTMAGC"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 1
	return out
}

// TestFNVKnownValues pins the hash to the published FNV-1a/64 vectors.
func TestFNVKnownValues(t *testing.T) {
	if got := NewFNV().Sum(); got != 0xcbf29ce484222325 {
		t.Fatalf("offset basis %#x", got)
	}
	if got := NewFNV().Str("a").Sum(); got != 0xaf63dc4c8601ec8c {
		t.Fatalf(`FNV-1a("a") = %#x`, got)
	}
	if got := NewFNV().Str("foobar").Sum(); got != 0x85944171f73967e8 {
		t.Fatalf(`FNV-1a("foobar") = %#x`, got)
	}
	if NewFNV().Str("foobar") != NewFNV().Bytes([]byte("foobar")) {
		t.Fatal("Str and Bytes disagree")
	}
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], 0x0102030405060708)
	if NewFNV().U64(0x0102030405060708) != NewFNV().Bytes(le[:]) {
		t.Fatal("U64 is not the little-endian byte hash")
	}
}

func TestReaderReadsWhatWasWritten(t *testing.T) {
	var buf []byte
	buf = append(buf, 0xab)
	buf = binary.LittleEndian.AppendUint64(buf, 0xdeadbeefcafef00d)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -5)
	buf = append(buf, "tail"...)
	r := NewReader(buf)
	if b := r.Byte(); b != 0xab {
		t.Fatalf("Byte = %#x", b)
	}
	if v := r.Fixed64(); v != 0xdeadbeefcafef00d {
		t.Fatalf("Fixed64 = %#x", v)
	}
	if v := r.Uvarint(300); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(-5, 5); v != -5 {
		t.Fatalf("Varint = %d", v)
	}
	if r.Remaining() != 4 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if b := r.Bytes(4); string(b) != "tail" || cap(b) != 4 {
		t.Fatalf("Bytes = %q (cap %d)", b, cap(b))
	}
	if !r.OK() || r.Remaining() != 0 {
		t.Fatal("clean read did not end OK at the end of the body")
	}
}

// TestReaderRejectsAndLatches: every accessor fails on short input,
// out-of-range or non-canonical values, and once failed every later
// read returns zero.
func TestReaderRejectsAndLatches(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"byte short", nil, func(r *Reader) { r.Byte() }},
		{"fixed64 short", make([]byte, 7), func(r *Reader) { r.Fixed64() }},
		{"bytes short", make([]byte, 3), func(r *Reader) { r.Bytes(4) }},
		{"bytes negative", make([]byte, 3), func(r *Reader) { r.Bytes(-1) }},
		{"uvarint short", []byte{0x80}, func(r *Reader) { r.Uvarint(1 << 62) }},
		{"uvarint over max", binary.AppendUvarint(nil, 301), func(r *Reader) { r.Uvarint(300) }},
		{"uvarint non-canonical", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint(1 << 62) }},
		{"varint below min", binary.AppendVarint(nil, -6), func(r *Reader) { r.Varint(-5, 5) }},
		{"varint above max", binary.AppendVarint(nil, 6), func(r *Reader) { r.Varint(-5, 5) }},
		{"varint non-canonical", []byte{0x83, 0x00}, func(r *Reader) { r.Varint(-5, 5) }},
		{"caller fail", []byte{1}, func(r *Reader) { r.Fail() }},
	}
	for _, tc := range cases {
		r := NewReader(tc.data)
		tc.read(r)
		if r.OK() {
			t.Fatalf("%s: read succeeded", tc.name)
		}
		if r.Byte() != 0 || r.Fixed64() != 0 || r.Uvarint(1<<62) != 0 || r.Varint(-1, 1) != 0 || r.Bytes(0) != nil {
			t.Fatalf("%s: reads after a failure returned data", tc.name)
		}
	}
}
