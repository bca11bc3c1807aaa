package colstore

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleColumns returns one representative column per kind, with and
// without null bitmaps — the canonical round-trip corpus.
func sampleColumns() []*Column {
	return []*Column{
		{Kind: KindFloat64, Floats: []float64{0, 1.5, -2.25, math.Inf(1), math.Pi}},
		{Kind: KindFloat64, Floats: []float64{0, 3.5, 0}, Nulls: []byte{0b101}},
		{Kind: KindInt64, Ints: []int64{0, -1, math.MaxInt64, math.MinInt64}},
		{Kind: KindInt64, Ints: []int64{7, 0, 9}, Nulls: []byte{0b010}},
		{Kind: KindBool, Bools: []bool{true, false, true, true}},
		{Kind: KindBool, Bools: []bool{false, false}, Nulls: []byte{0b11}},
		{Kind: KindString, Strings: []string{"", "hello", "wörld", "x"}},
		{Kind: KindString, Strings: []string{"a", "", "c"}, Nulls: []byte{0b010}},
		{Kind: KindFloat64, Floats: nil},
		{Kind: KindString, Strings: nil},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i, c := range sampleColumns() {
		data, err := Encode(c)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		assertColumnsEqual(t, c, got)
		// Canonical: re-encoding the decoded column reproduces the bytes.
		data2, err := Encode(got)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !reflect.DeepEqual(data, data2) {
			t.Errorf("case %d: encoding is not canonical", i)
		}
	}
}

func assertColumnsEqual(t *testing.T, want, got *Column) {
	t.Helper()
	if got.Kind != want.Kind || got.Len() != want.Len() {
		t.Fatalf("kind/len mismatch: got %v/%d, want %v/%d", got.Kind, got.Len(), want.Kind, want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if isNull(got, i) != isNull(want, i) {
			t.Fatalf("null[%d] mismatch", i)
		}
	}
	switch want.Kind {
	case KindFloat64:
		for i := range want.Floats {
			if math.Float64bits(got.Floats[i]) != math.Float64bits(want.Floats[i]) {
				t.Fatalf("float[%d] = %v, want %v", i, got.Floats[i], want.Floats[i])
			}
		}
	case KindInt64:
		if !reflect.DeepEqual(noNilSliceInt(got.Ints), noNilSliceInt(want.Ints)) {
			t.Fatalf("ints = %v, want %v", got.Ints, want.Ints)
		}
	case KindBool:
		if !reflect.DeepEqual(noNilSliceBool(got.Bools), noNilSliceBool(want.Bools)) {
			t.Fatalf("bools = %v, want %v", got.Bools, want.Bools)
		}
	case KindString:
		if !reflect.DeepEqual(noNilSliceStr(got.Strings), noNilSliceStr(want.Strings)) {
			t.Fatalf("strings = %v, want %v", got.Strings, want.Strings)
		}
	}
}

func noNilSliceInt(s []int64) []int64 {
	if s == nil {
		return []int64{}
	}
	return s
}
func noNilSliceBool(s []bool) []bool {
	if s == nil {
		return []bool{}
	}
	return s
}
func noNilSliceStr(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// TestFormatLayout pins the on-disk layout: a float64 column's value
// section starts at the 4096-byte page boundary with IEEE-754 bits in
// little-endian order. Changing this breaks every existing spill dir.
func TestFormatLayout(t *testing.T) {
	c := &Column{Kind: KindFloat64, Floats: []float64{1.5, -0.25}}
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
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

func TestDecodeRejectsCorruption(t *testing.T) {
	c := &Column{Kind: KindFloat64, Floats: []float64{1, 2, 3, 4}}
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte){
		"flip payload bit":  func(b []byte) { b[headerSize+5] ^= 0x40 },
		"flip header kind":  func(b []byte) { b[offKind] ^= 0x01 },
		"zero magic":        func(b []byte) { b[0] = 0 },
		"flip length":       func(b []byte) { b[offLength] ^= 0x01 },
		"flip payload CRC":  func(b []byte) { b[offPayloadCRC] ^= 0x01 },
		"flip null bitmap?": func(b []byte) { b[len(b)-1] ^= 0x80 },
	}
	for name, corrupt := range cases {
		bad := append([]byte(nil), data...)
		corrupt(bad)
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	// Truncation at every section boundary and mid-payload.
	for _, n := range []int{0, 7, headerSize - 1, headerSize, headerSize + 9, len(data) - 1} {
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes not detected", n)
		}
	}
}

func isNull(c *Column, i int) bool {
	return i/8 < len(c.Nulls) && c.Nulls[i/8]&(1<<(i%8)) != 0
}

// writeColumn encodes c into a new file at path.
func writeColumn(t *testing.T, path string, c *Column) {
	t.Helper()
	data, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestMappedZeroCopyViews(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.col")
	want := []float64{0.5, -1.5, 42, math.SmallestNonzeroFloat64}
	writeColumn(t, path, &Column{Kind: KindFloat64, Floats: want})
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, err := m.Float64s()
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != KindFloat64 || len(got) != len(want) {
		t.Fatalf("kind/len = %v/%d", m.Kind(), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mapped[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The view survives unlinking the file (pages are referenced).
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got[2] != 42 {
		t.Fatal("view invalid after unlink")
	}
}

func TestOpenMappedRejectsTornFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.col")
	writeColumn(t, path, &Column{Kind: KindFloat64, Floats: make([]float64, 1024)})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-payload: the header describes more bytes than exist.
	if err := os.WriteFile(path, data[:headerSize+100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil {
		t.Fatal("torn file not rejected")
	}
	// Bit flip mid-payload at full length: caught by the payload CRC.
	data[headerSize+512] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil {
		t.Fatal("payload corruption not rejected")
	}
}
