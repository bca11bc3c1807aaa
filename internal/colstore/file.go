package colstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"unsafe"
)

// WriteFile encodes the column and writes it crash-safely: the image goes
// to a temp file in the target directory, is fsynced, and is renamed into
// place — a crash mid-write leaves only a temp file (garbage-collected by
// Tier on reopen), never a torn file under the final name.
func WriteFile(path string, c *Column) error {
	tmp, err := writeTemp(path, c)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("colstore: renaming into %s: %w", path, err)
	}
	return nil
}

// writeTemp encodes the column into a fsynced temp file beside path and
// returns the temp file's name; the caller publishes and removes it.
func writeTemp(path string, c *Column) (string, error) {
	data, err := Encode(c)
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", fmt.Errorf("colstore: temp file: %w", err)
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
		return "", fmt.Errorf("colstore: writing %s: %w", path, err)
	}
	return tmp.Name(), nil
}

// ReadFile reads and fully verifies a column file, returning copied slices.
func ReadFile(path string) (*Column, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
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

// Len returns the number of values.
func (m *Mapped) Len() int { return m.h.length }

// SizeBytes returns the file (and mapping) size.
func (m *Mapped) SizeBytes() int64 { return m.h.totalSize() }

// HasNulls reports whether the column carries a null bitmap.
func (m *Mapped) HasNulls() bool { return m.h.flags&flagHasNulls != 0 }

// Nulls returns the mapped null bitmap (nil when the column has none).
// Read-only, like every view.
func (m *Mapped) Nulls() []byte {
	if !m.HasNulls() {
		return nil
	}
	return m.data[headerSize+m.h.valueBytes : headerSize+m.h.valueBytes+m.h.nullBytes]
}

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

// Int64s is Float64s for int64 columns.
func (m *Mapped) Int64s() ([]int64, error) {
	if m.h.kind != KindInt64 {
		return nil, fmt.Errorf("colstore: column is %s, not int64", m.h.kind)
	}
	if m.h.length == 0 {
		return nil, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&m.data[headerSize])), m.h.length), nil
	}
	c, err := m.decode()
	if err != nil {
		return nil, err
	}
	return c.Ints, nil
}

// Column decodes the mapped file into an owned Column (copying slices) —
// the non-zero-copy accessor for bool/string columns and for callers that
// need to outlive the mapping.
func (m *Mapped) Column() (*Column, error) {
	return Decode(m.data)
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
