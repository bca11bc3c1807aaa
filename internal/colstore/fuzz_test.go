package colstore

import (
	"bytes"
	"testing"
)

// FuzzColumnCodec fuzzes the column-file checks (the ones every spill
// read makes) with arbitrary byte images: decode must never panic or
// over-allocate, and any image it accepts must round-trip canonically
// (re-encoding the decoded values reproduces the accepted bytes exactly —
// there is exactly one valid image of any float64 column) and bit-exactly. The corpus is seeded with
// the committed fixture images (a float64 column and the retired int64
// and string kinds), a few encoded vectors, and near-miss mutants of each.
func FuzzColumnCodec(f *testing.F) {
	images := [][]byte{
		readFixture(f, fixtureFloat64),
		readFixture(f, fixtureInt64),
		readFixture(f, fixtureString),
	}
	for _, v := range sampleVectors() {
		images = append(images, Encode(v))
	}
	for _, data := range images {
		f.Add(data)
		// Seed near-miss mutants so the fuzzer starts at the rejection
		// boundaries instead of random noise.
		for _, i := range []int{0, offKind, offFlags, offLength, offValueBytes, offNullBytes, offBlobBytes, offPayloadCRC, len(data) - 1} {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
		f.Add(data[:len(data)-1])
	}
	f.Add([]byte(magic))
	f.Add(bytes.Repeat([]byte{0}, headerSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decode(data, 0)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		re := Encode(v)
		if !bytes.Equal(re, data) {
			t.Fatalf("codec not canonical: accepted %d bytes, re-encoded to %d different bytes", len(data), len(re))
		}
		v2, err := decode(re, 0)
		if err != nil {
			t.Fatalf("re-encoded column failed to decode: %v", err)
		}
		assertBitsEqual(t, v, v2)
	})
}
