// Package colstore is the out-of-core tier of the Storage Manager: a
// memory-mapped columnar file format plus a directory-level spill tier
// (Tier) that the in-RAM basis store demotes cold entries into and faults
// them back from.
//
// One column lives in one file: a page-aligned header (magic, kind,
// length, section sizes, CRC-32C checksums) followed by the value section,
// an optional null bitmap and, for string columns, an offset-addressed
// blob. Fixed-width values are little-endian, so on little-endian hosts a
// mapped file serves zero-copy []float64 / []int64 views that the reuse
// remapper and the SQL engine's plan run over directly — the page
// cache, not the Go heap, holds cold bases.
//
// Crash safety: files are written to a temp name, fsynced and renamed into
// place, so a reader never observes a torn file under its final name; both
// header and payload carry CRCs, and the Tier quarantines (renames aside)
// any file that fails verification instead of serving garbage — a
// quarantined basis is simply re-simulated.
package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// Kind identifies a column's value type.
type Kind uint32

// Column kinds. The numeric values are part of the on-disk format.
const (
	KindFloat64 Kind = 1
	KindInt64   Kind = 2
	KindBool    Kind = 3
	KindString  Kind = 4
)

func (k Kind) String() string {
	switch k {
	case KindFloat64:
		return "float64"
	case KindInt64:
		return "int64"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint32(k))
	}
}

// valueWidth returns the fixed per-value width of the value section, in
// bytes. String columns store fixed-width uint32 end-offsets into the blob
// section (length+1 of them), so they too have a fixed-width value section.
func (k Kind) valueWidth() int {
	switch k {
	case KindFloat64, KindInt64:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 4
	default:
		return 0
	}
}

// Column is one decoded (or to-be-encoded) column: a typed value vector
// plus an optional null bitmap. Exactly one of the value slices is
// populated, matching Kind; null positions hold the zero value.
type Column struct {
	Kind    Kind
	Floats  []float64
	Ints    []int64
	Bools   []bool
	Strings []string
	// Nulls is a little-endian bitmap (bit i of byte i/8 set = value i is
	// NULL); nil means no nulls.
	Nulls []byte
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.Kind {
	case KindFloat64:
		return len(c.Floats)
	case KindInt64:
		return len(c.Ints)
	case KindBool:
		return len(c.Bools)
	case KindString:
		return len(c.Strings)
	default:
		return 0
	}
}

// File format constants.
const (
	// headerSize is one page: the value section starts page-aligned, which
	// both keeps mapped []float64 casts 8-byte aligned and lets the value
	// section start on its own page of the OS page cache.
	headerSize = 4096
	// magic identifies a colstore column file, version 1.
	magic = "FPCOL001"

	// Header field offsets (all little-endian).
	offMagic      = 0  // [8]byte
	offKind       = 8  // uint32
	offFlags      = 12 // uint32
	offLength     = 16 // uint64: number of values
	offValueBytes = 24 // uint64: value-section size
	offNullBytes  = 32 // uint64: null-bitmap size (0 = no nulls)
	offBlobBytes  = 40 // uint64: string-blob size
	offPayloadCRC = 48 // uint32: CRC-32C of value||nulls||blob
	offHeaderCRC  = 52 // uint32: CRC-32C of header bytes [0, offHeaderCRC)

	// flagHasNulls marks a column carrying a null bitmap.
	flagHasNulls = 1 << 0

	// maxLength bounds the value count a header may claim, so a corrupt
	// header cannot drive a multi-terabyte allocation before CRC rejection.
	maxLength = 1 << 40
)

// castagnoli is the CRC-32C table (the iSCSI polynomial, hardware-
// accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the host's native byte order matches
// the on-disk little-endian format — when true, mapped value sections are
// served as zero-copy typed slices.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// header is the decoded fixed header.
type header struct {
	kind       Kind
	flags      uint32
	length     int
	valueBytes int64
	nullBytes  int64
	blobBytes  int64
	payloadCRC uint32
}

func (h *header) totalSize() int64 {
	return headerSize + h.valueBytes + h.nullBytes + h.blobBytes
}

// nullBitmapSize returns the bitmap size for n values.
func nullBitmapSize(n int) int { return (n + 7) / 8 }

// parseHeader validates and decodes the fixed header against the full file
// size (len(data) when the whole file is in hand).
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
	h.kind = Kind(binary.LittleEndian.Uint32(data[offKind:]))
	h.flags = binary.LittleEndian.Uint32(data[offFlags:])
	length := binary.LittleEndian.Uint64(data[offLength:])
	h.valueBytes = int64(binary.LittleEndian.Uint64(data[offValueBytes:]))
	h.nullBytes = int64(binary.LittleEndian.Uint64(data[offNullBytes:]))
	h.blobBytes = int64(binary.LittleEndian.Uint64(data[offBlobBytes:]))
	h.payloadCRC = binary.LittleEndian.Uint32(data[offPayloadCRC:])

	w := h.kind.valueWidth()
	if w == 0 {
		return h, fmt.Errorf("colstore: unknown column kind %d", h.kind)
	}
	if length > maxLength {
		return h, fmt.Errorf("colstore: implausible length %d", length)
	}
	h.length = int(length)
	wantValues := int64(h.length) * int64(w)
	if h.kind == KindString {
		wantValues = int64(h.length+1) * int64(w)
	}
	if h.valueBytes != wantValues {
		return h, fmt.Errorf("colstore: value section %d bytes, want %d for %d %s values",
			h.valueBytes, wantValues, h.length, h.kind)
	}
	wantNulls := int64(0)
	if h.flags&flagHasNulls != 0 {
		wantNulls = int64(nullBitmapSize(h.length))
	}
	if h.nullBytes != wantNulls {
		return h, fmt.Errorf("colstore: null bitmap %d bytes, want %d", h.nullBytes, wantNulls)
	}
	if h.kind != KindString && h.blobBytes != 0 {
		return h, fmt.Errorf("colstore: %s column carries a %d-byte blob", h.kind, h.blobBytes)
	}
	if int64(len(data)) != h.totalSize() {
		return h, fmt.Errorf("colstore: file is %d bytes, header describes %d (truncated or padded)",
			len(data), h.totalSize())
	}
	if h.flags&^uint32(flagHasNulls) != 0 {
		return h, fmt.Errorf("colstore: unknown header flags %#x", h.flags)
	}
	// The header page's padding must be zero: the encoding of a column is
	// canonical (one valid byte image per column), which both the fuzz
	// round-trip property and content comparison rely on.
	for _, b := range data[offHeaderCRC+4 : headerSize] {
		if b != 0 {
			return h, fmt.Errorf("colstore: nonzero header padding")
		}
	}
	return h, nil
}

// verifyPayload checks the payload CRC of a parsed file image.
func verifyPayload(h header, data []byte) error {
	if got := crc32.Checksum(data[headerSize:], castagnoli); got != h.payloadCRC {
		return fmt.Errorf("colstore: payload CRC mismatch (got %08x, want %08x)", got, h.payloadCRC)
	}
	return nil
}

// Encode serializes the column into the file-format byte image
// (header + value section + null bitmap + string blob).
func Encode(c *Column) ([]byte, error) {
	w := c.Kind.valueWidth()
	if w == 0 {
		return nil, fmt.Errorf("colstore: cannot encode unknown kind %d", c.Kind)
	}
	n := c.Len()
	if c.Nulls != nil && len(c.Nulls) != nullBitmapSize(n) {
		return nil, fmt.Errorf("colstore: null bitmap is %d bytes, want %d for %d values",
			len(c.Nulls), nullBitmapSize(n), n)
	}
	valueBytes := n * w
	blobBytes := 0
	if c.Kind == KindString {
		valueBytes = (n + 1) * w
		for _, s := range c.Strings {
			blobBytes += len(s)
		}
		if blobBytes > math.MaxUint32 {
			return nil, fmt.Errorf("colstore: string blob %d bytes exceeds the uint32 offset space", blobBytes)
		}
	}
	nullBytes := len(c.Nulls)

	buf := make([]byte, headerSize+valueBytes+nullBytes+blobBytes)
	values := buf[headerSize : headerSize+valueBytes]
	switch c.Kind {
	case KindFloat64:
		for i, f := range c.Floats {
			binary.LittleEndian.PutUint64(values[i*8:], math.Float64bits(f))
		}
	case KindInt64:
		for i, v := range c.Ints {
			binary.LittleEndian.PutUint64(values[i*8:], uint64(v))
		}
	case KindBool:
		for i, b := range c.Bools {
			if b {
				values[i] = 1
			}
		}
	case KindString:
		blob := buf[headerSize+valueBytes+nullBytes:]
		off := 0
		for i, s := range c.Strings {
			copy(blob[off:], s)
			off += len(s)
			binary.LittleEndian.PutUint32(values[(i+1)*4:], uint32(off))
		}
	}
	copy(buf[headerSize+valueBytes:], c.Nulls)

	copy(buf[offMagic:], magic)
	binary.LittleEndian.PutUint32(buf[offKind:], uint32(c.Kind))
	flags := uint32(0)
	if c.Nulls != nil {
		flags |= flagHasNulls
	}
	binary.LittleEndian.PutUint32(buf[offFlags:], flags)
	binary.LittleEndian.PutUint64(buf[offLength:], uint64(n))
	binary.LittleEndian.PutUint64(buf[offValueBytes:], uint64(valueBytes))
	binary.LittleEndian.PutUint64(buf[offNullBytes:], uint64(nullBytes))
	binary.LittleEndian.PutUint64(buf[offBlobBytes:], uint64(blobBytes))
	binary.LittleEndian.PutUint32(buf[offPayloadCRC:], crc32.Checksum(buf[headerSize:], castagnoli))
	binary.LittleEndian.PutUint32(buf[offHeaderCRC:], crc32.Checksum(buf[:offHeaderCRC], castagnoli))
	return buf, nil
}

// Decode parses and verifies a full file image, returning a column whose
// slices are fresh copies (no aliasing of data). Mapped zero-copy access
// goes through Mapped instead.
func Decode(data []byte) (*Column, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if err := verifyPayload(h, data); err != nil {
		return nil, err
	}
	c := &Column{Kind: h.kind}
	values := data[headerSize : headerSize+h.valueBytes]
	switch h.kind {
	case KindFloat64:
		c.Floats = make([]float64, h.length)
		for i := range c.Floats {
			c.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(values[i*8:]))
		}
	case KindInt64:
		c.Ints = make([]int64, h.length)
		for i := range c.Ints {
			c.Ints[i] = int64(binary.LittleEndian.Uint64(values[i*8:]))
		}
	case KindBool:
		c.Bools = make([]bool, h.length)
		for i := range c.Bools {
			if values[i] > 1 {
				return nil, fmt.Errorf("colstore: non-canonical bool byte %#x at %d", values[i], i)
			}
			c.Bools[i] = values[i] == 1
		}
	case KindString:
		blob := data[headerSize+h.valueBytes+h.nullBytes:]
		c.Strings = make([]string, h.length)
		prev := uint32(0)
		if h.length > 0 && binary.LittleEndian.Uint32(values[0:]) != 0 {
			return nil, fmt.Errorf("colstore: string offsets do not start at 0")
		}
		for i := 0; i < h.length; i++ {
			end := binary.LittleEndian.Uint32(values[(i+1)*4:])
			if end < prev || int64(end) > h.blobBytes {
				return nil, fmt.Errorf("colstore: string offset %d out of order or past blob end", end)
			}
			c.Strings[i] = string(blob[prev:end])
			prev = end
		}
		if int64(prev) != h.blobBytes {
			return nil, fmt.Errorf("colstore: string blob has %d trailing bytes", h.blobBytes-int64(prev))
		}
	}
	if h.flags&flagHasNulls != 0 {
		// Non-nil even when empty: Encode keys the flag off Nulls != nil,
		// and canonical round-trips must preserve it.
		c.Nulls = make([]byte, h.nullBytes)
		copy(c.Nulls, data[headerSize+h.valueBytes:])
	}
	return c, nil
}
