package colstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"unsafe"
)

// writeTemp encodes the column into a fsynced temp file beside path and
// returns the temp file's name and the image's payload CRC-32C; the caller
// publishes and removes the file.
func writeTemp(path string, c *Column) (string, uint32, error) {
	data, err := Encode(c)
	if err != nil {
		return "", 0, err
	}
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

// Mapped is a memory-mapped column file serving zero-copy views of its
// value section. The mapping (and every view handed out) stays valid until
// Close; unlinking the underlying file does not invalidate it.
type Mapped struct {
	data []byte
	h    header

	// decoded caches a byte-order-converted copy on big-endian hosts,
	// where the mapped bytes cannot be cast directly.
	decodeOnce sync.Once
	decoded    *Column
}

// OpenMapped maps the column file and verifies both CRCs (one sequential
// pass over the mapped payload — the contents enter the page cache warm).
// On any verification failure the mapping is released and an error
// returned; the caller decides whether to quarantine the file.
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
	return &Mapped{data: data, h: h}, nil
}

// Kind returns the column kind.
func (m *Mapped) Kind() Kind { return m.h.kind }

// Float64s returns the value vector of a float64 column. On little-endian
// hosts this is a zero-copy view of the mapping (page-aligned, so the cast
// is 8-byte aligned); mutating it is undefined behavior — the pages are
// mapped read-only and a write faults. Valid until Close.
func (m *Mapped) Float64s() ([]float64, error) {
	if m.h.kind != KindFloat64 {
		return nil, fmt.Errorf("colstore: column is %s, not float64", m.h.kind)
	}
	if m.h.length == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&m.data[headerSize])), m.h.length), nil
	}
	c, err := m.decode()
	if err != nil {
		return nil, err
	}
	return c.Floats, nil
}

// decode lazily materializes the byte-order-converted copy (big-endian
// hosts only).
func (m *Mapped) decode() (*Column, error) {
	var err error
	m.decodeOnce.Do(func() {
		m.decoded, err = Decode(m.data)
	})
	if m.decoded == nil && err == nil {
		err = fmt.Errorf("colstore: mapped column failed to decode")
	}
	return m.decoded, err
}

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
