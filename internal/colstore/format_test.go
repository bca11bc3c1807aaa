package colstore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"
)

// sampleVectors is the canonical round-trip corpus.
func sampleVectors() [][]float64 {
	return [][]float64{
		{0, 1.5, -2.25, math.Inf(1), math.Pi},
		{math.Copysign(0, -1), math.NaN(), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64},
		{42},
		nil,
	}
}

// The testdata images were written by the codec before the format was
// narrowed to float64 columns, when it also encoded int64, bool and string
// columns. float64.col holds fixtureFloats; int64.col and string.col are
// the two kinds no file may carry any more.
const (
	fixtureFloat64 = "testdata/float64.col"
	fixtureInt64   = "testdata/int64.col"
	fixtureString  = "testdata/string.col"
)

// fixtureFloats returns the values of fixtureFloat64: -0, a NaN with a
// payload, ±Inf, two subnormals, MaxFloat64 and 1.5.
func fixtureFloats() []float64 {
	return []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8deadbeef0001),
		math.Inf(1),
		math.Inf(-1),
		math.Float64frombits(0x000fffffffffffff),
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
		1.5,
	}
}

func readFixture(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// assertBitsEqual fails unless got and want hold the same IEEE-754 bits.
func assertBitsEqual(t *testing.T, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value[%d] bits = %016x, want %016x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i, v := range sampleVectors() {
		data := Encode(v)
		got, err := decode(data, 0)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		assertBitsEqual(t, v, got)
		// Canonical: re-encoding the decoded values reproduces the bytes.
		if !bytes.Equal(data, Encode(got)) {
			t.Errorf("case %d: encoding is not canonical", i)
		}
	}
}

// TestFormatLayout pins the on-disk layout: a float64 column's value
// section starts at the 4096-byte page boundary with IEEE-754 bits in
// little-endian order. Changing this breaks every existing spill dir.
func TestFormatLayout(t *testing.T) {
	data := Encode([]float64{1.5, -0.25})
	if len(data) != headerSize+16 {
		t.Fatalf("file is %d bytes, want %d", len(data), headerSize+16)
	}
	if string(data[:8]) != "FPCOL001" {
		t.Fatalf("magic = %q", data[:8])
	}
	if got := binary.LittleEndian.Uint64(data[headerSize:]); got != math.Float64bits(1.5) {
		t.Fatalf("value[0] bits = %x, want %x", got, math.Float64bits(1.5))
	}
	if got := binary.LittleEndian.Uint64(data[headerSize+8:]); got != math.Float64bits(-0.25) {
		t.Fatalf("value[1] bits = %x, want %x", got, math.Float64bits(-0.25))
	}
}

// TestFixtureFloat64Image: spill files written before the format was
// narrowed reopen unchanged. Encode reproduces the committed image byte
// for byte, and decode reads it back bit-exactly.
func TestFixtureFloat64Image(t *testing.T) {
	data := readFixture(t, fixtureFloat64)
	want := fixtureFloats()
	if !bytes.Equal(Encode(want), data) {
		t.Fatal("Encode does not reproduce the float64 fixture image")
	}
	got, err := decode(data, binary.LittleEndian.Uint32(data[offPayloadCRC:]))
	if err != nil {
		t.Fatal(err)
	}
	assertBitsEqual(t, want, got)
}

// TestFixtureNonFloatImagesRejected: valid images of the retired int64 and
// string kinds fail decode.
func TestFixtureNonFloatImagesRejected(t *testing.T) {
	for _, path := range []string{fixtureInt64, fixtureString} {
		if _, err := decode(readFixture(t, path), 0); err == nil {
			t.Errorf("%s: decode accepted a non-float64 image", path)
		}
	}
}

// restampHeader recomputes the header CRC after a header mutation, so the
// field checks rather than the CRC must catch it.
func restampHeader(b []byte) {
	binary.LittleEndian.PutUint32(b[offHeaderCRC:], crc32.Checksum(b[:offHeaderCRC], castagnoli))
}

func TestDecodeRejectsCorruption(t *testing.T) {
	data := Encode([]float64{1, 2, 3, 4})
	cases := map[string]func([]byte){
		"flip payload bit":      func(b []byte) { b[headerSize+5] ^= 0x40 },
		"flip header kind":      func(b []byte) { b[offKind] ^= 0x01 },
		"zero magic":            func(b []byte) { b[0] = 0 },
		"flip length":           func(b []byte) { b[offLength] ^= 0x01 },
		"flip payload CRC":      func(b []byte) { b[offPayloadCRC] ^= 0x01 },
		"flip last payload bit": func(b []byte) { b[len(b)-1] ^= 0x80 },
		"int64 kind":            func(b []byte) { b[offKind] = 2; restampHeader(b) },
		"null flag":             func(b []byte) { b[offFlags] = 1; restampHeader(b) },
		"null bitmap bytes":     func(b []byte) { b[offNullBytes] = 1; restampHeader(b) },
		"blob bytes":            func(b []byte) { b[offBlobBytes] = 1; restampHeader(b) },
		"value bytes":           func(b []byte) { b[offValueBytes] = 24; restampHeader(b) },
		"header padding":        func(b []byte) { b[headerSize-1] = 1 },
	}
	for name, corrupt := range cases {
		bad := append([]byte(nil), data...)
		corrupt(bad)
		if _, err := decode(bad, 0); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	// Truncation at every section boundary and mid-payload.
	for _, n := range []int{0, 7, headerSize - 1, headerSize, headerSize + 9, len(data) - 1} {
		if _, err := decode(data[:n], 0); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

// TestDecodeRejectsTornFile: a file cut short mid-payload, one with a
// flipped payload bit at full length, and an intact file whose payload CRC
// is not the one its writer recorded all fail decode.
func TestDecodeRejectsTornFile(t *testing.T) {
	data := Encode(make([]float64, 1024))
	crc := binary.LittleEndian.Uint32(data[offPayloadCRC:])
	// Truncated mid-payload: the header describes more bytes than exist.
	if _, err := decode(data[:headerSize+100], crc); err == nil {
		t.Fatal("torn file not rejected")
	}
	if _, err := decode(data, crc^1); err == nil {
		t.Fatal("file with another writer's payload CRC not rejected")
	}
	// Bit flip mid-payload at full length: caught by the payload CRC.
	data[headerSize+512] ^= 0x10
	if _, err := decode(data, crc); err == nil {
		t.Fatal("payload corruption not rejected")
	}
}
