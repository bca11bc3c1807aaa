// Package colstore is the out-of-core tier of the Storage Manager: a file
// format for float64 basis vectors plus a directory-level spill tier (Tier)
// that the in-RAM basis store demotes cold entries into and reads them back
// from.
//
// One basis lives in one file: a page-sized header (magic, kind, length,
// section sizes, CRC-32C checksums) followed by the value section, the
// values' little-endian IEEE-754 bits. Every read checks the header and the
// payload CRC, then copies the values into a fresh heap slice that the
// caller owns.
//
// Crash safety: files are written to a temp name, fsynced and published
// under their final name, so a reader never observes a torn file there;
// both header and payload carry CRCs, and the Tier quarantines (renames
// aside) any file that fails verification instead of serving garbage — a
// quarantined basis is simply re-simulated.
package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// File format constants.
const (
	// headerSize is one page: the value section starts at byte 4096.
	// TestFormatLayout pins it, so spill directories written earlier stay
	// readable.
	headerSize = 4096
	// magic identifies a colstore column file, version 1.
	magic = "FPCOL001"

	// Header field offsets (all little-endian).
	offMagic      = 0  // [8]byte
	offKind       = 8  // uint32: always kindFloat64
	offFlags      = 12 // uint32: always 0
	offLength     = 16 // uint64: number of values
	offValueBytes = 24 // uint64: value-section size
	offNullBytes  = 32 // uint64: always 0 (null-bitmap size)
	offBlobBytes  = 40 // uint64: always 0 (string-blob size)
	offPayloadCRC = 48 // uint32: CRC-32C of the value section
	offHeaderCRC  = 52 // uint32: CRC-32C of header bytes [0, offHeaderCRC)

	// kindFloat64 is the only kind a file may carry.
	kindFloat64 = 1

	// maxLength bounds the value count a header may claim, so a corrupt
	// header cannot drive a multi-terabyte allocation before CRC rejection.
	maxLength = 1 << 40
)

// castagnoli is the CRC-32C table (the iSCSI polynomial, hardware-
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header is the decoded fixed header.
type header struct {
	length     int
	payloadCRC uint32
}

// parseHeader validates and decodes the fixed header against the full file
// size (len(data) when the whole file is in hand). Only a float64 column
// with no null bitmap and no blob passes.
func parseHeader(data []byte) (header, error) {
	var h header
	if len(data) < headerSize {
		return h, fmt.Errorf("colstore: file too short for header (%d bytes)", len(data))
	}
	if string(data[offMagic:offMagic+8]) != magic {
		return h, fmt.Errorf("colstore: bad magic %q", data[offMagic:offMagic+8])
	}
	if got, want := crc32.Checksum(data[:offHeaderCRC], castagnoli), binary.LittleEndian.Uint32(data[offHeaderCRC:]); got != want {
		return h, fmt.Errorf("colstore: header CRC mismatch (got %08x, want %08x)", got, want)
	}
	if kind := binary.LittleEndian.Uint32(data[offKind:]); kind != kindFloat64 {
		return h, fmt.Errorf("colstore: column kind %d, want float64 (%d)", kind, kindFloat64)
	}
	if flags := binary.LittleEndian.Uint32(data[offFlags:]); flags != 0 {
		return h, fmt.Errorf("colstore: header flags %#x, want 0", flags)
	}
	if n := binary.LittleEndian.Uint64(data[offNullBytes:]); n != 0 {
		return h, fmt.Errorf("colstore: %d-byte null bitmap, want none", n)
	}
	if n := binary.LittleEndian.Uint64(data[offBlobBytes:]); n != 0 {
		return h, fmt.Errorf("colstore: %d-byte blob, want none", n)
	}
	length := binary.LittleEndian.Uint64(data[offLength:])
	if length > maxLength {
		return h, fmt.Errorf("colstore: implausible length %d", length)
	}
	if vb := binary.LittleEndian.Uint64(data[offValueBytes:]); vb != length*8 {
		return h, fmt.Errorf("colstore: value section %d bytes, want %d for %d values", vb, length*8, length)
	}
	if size := headerSize + int64(length)*8; int64(len(data)) != size {
		return h, fmt.Errorf("colstore: file is %d bytes, header describes %d (truncated or padded)", len(data), size)
	}
	// The header page's padding must be zero: the encoding of a column is
	// canonical (one valid byte image per column), which both the fuzz
	// round-trip property and content comparison rely on.
	for _, b := range data[offHeaderCRC+4 : headerSize] {
		if b != 0 {
			return h, fmt.Errorf("colstore: nonzero header padding")
		}
	}
	h.length = int(length)
	h.payloadCRC = binary.LittleEndian.Uint32(data[offPayloadCRC:])
	return h, nil
}

// decode verifies a full column-file image and returns its values in a
// fresh slice. It makes every check a read of a spill file makes: the
// header's (parseHeader), the payload CRC and, when payloadCRC is nonzero,
// that the image's payload CRC is the one its writer recorded, so a file
// another writer published under the same name is refused.
func decode(data []byte, payloadCRC uint32) ([]float64, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(data[headerSize:], castagnoli); got != h.payloadCRC {
		return nil, fmt.Errorf("colstore: payload CRC mismatch (got %08x, want %08x)", got, h.payloadCRC)
	}
	if payloadCRC != 0 && h.payloadCRC != payloadCRC {
		return nil, fmt.Errorf("colstore: payload CRC %08x, want the recorded %08x", h.payloadCRC, payloadCRC)
	}
	values := make([]float64, h.length)
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[headerSize+8*i:]))
	}
	return values, nil
}

// Encode serializes the values into the file-format byte image (header +
// value section).
func Encode(values []float64) []byte {
	buf := make([]byte, headerSize+8*len(values))
	for i, f := range values {
		binary.LittleEndian.PutUint64(buf[headerSize+i*8:], math.Float64bits(f))
	}
	copy(buf[offMagic:], magic)
	binary.LittleEndian.PutUint32(buf[offKind:], kindFloat64)
	binary.LittleEndian.PutUint64(buf[offLength:], uint64(len(values)))
	binary.LittleEndian.PutUint64(buf[offValueBytes:], uint64(8*len(values)))
	binary.LittleEndian.PutUint32(buf[offPayloadCRC:], crc32.Checksum(buf[headerSize:], castagnoli))
	binary.LittleEndian.PutUint32(buf[offHeaderCRC:], crc32.Checksum(buf[:offHeaderCRC], castagnoli))
	return buf
}
