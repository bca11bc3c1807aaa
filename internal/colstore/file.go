package colstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"
)

// writeTemp encodes the values into a fsynced temp file beside path and
// returns the temp file's name and the image's payload CRC-32C; the caller
// publishes and removes the file.
func writeTemp(path string, values []float64) (string, uint32, error) {
	data := Encode(values)
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", 0, fmt.Errorf("colstore: temp file: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return "", 0, fmt.Errorf("colstore: writing %s: %w", path, err)
	}
	return tmp.Name(), binary.LittleEndian.Uint32(data[offPayloadCRC:]), nil
}

// Mapped is a memory-mapped column file serving a zero-copy view of its
// values. The mapping (and every view handed out) stays valid until Close;
// unlinking the underlying file does not invalidate it.
type Mapped struct {
	data []byte
	h    header
	// values is the view Float64s returns: the mapped value section on
	// little-endian hosts, a byte-order-converted copy elsewhere.
	values []float64
}

// OpenMapped maps the column file and verifies both CRCs (one sequential
// pass over the mapped payload — the contents enter the page cache warm).
// On any verification failure (a file of another kind included) the
// mapping is released and an error returned; the caller decides whether
// to quarantine the file.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < headerSize {
		return nil, fmt.Errorf("colstore: %s is %d bytes, smaller than a header", path, size)
	}
	data, err := mmap(f, size)
	if err != nil {
		return nil, fmt.Errorf("colstore: mapping %s: %w", path, err)
	}
	h, err := parseHeader(data)
	if err == nil {
		err = verifyPayload(h, data)
	}
	if err != nil {
		munmap(data)
		return nil, err
	}
	m := &Mapped{data: data, h: h}
	switch {
	case h.length == 0:
	case hostLittleEndian:
		// Page-aligned, so the cast is 8-byte aligned.
		m.values = unsafe.Slice((*float64)(unsafe.Pointer(&data[headerSize])), h.length)
	default:
		m.values = decodeValues(data[headerSize:], h.length)
	}
	return m, nil
}

// Float64s returns the column's values. On little-endian hosts this is a
// zero-copy view of the mapping; mutating it is undefined behavior — the
// pages are mapped read-only and a write faults. Valid until Close.
func (m *Mapped) Float64s() []float64 { return m.values }

// Close releases the mapping. Every view previously returned becomes
// invalid; accessing one afterwards faults.
func (m *Mapped) Close() error {
	if m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	return munmap(data)
}
