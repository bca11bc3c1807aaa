package aggregate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fuzzyprophet/internal/stats"
)

// Binary sketch encoding, as carried inside the shard response frame.
// Little-endian throughout:
//
//	count int64 | mean, m2, min, max, compression float64
//	centroid count uint32 | that many (mean, weight) float64 pairs
//
// Floats travel as their IEEE-754 bits, so NaN payloads, ±Inf and −0
// round-trip exactly — a decoded sketch is bit-identical to the encoded one.

// sketchHeaderBytes is the fixed-size prefix: six 8-byte fields and the
// uint32 centroid count.
const sketchHeaderBytes = 6*8 + 4

// errShortSketch reports a sketch cut off before its declared end.
var errShortSketch = errors.New("aggregate: truncated sketch")

// AppendSketch appends sk's binary encoding to buf and returns the
// extended buffer.
func AppendSketch(buf []byte, sk ColumnSketch) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, uint64(sk.Count))
	for _, f := range [...]float64{sk.Mean, sk.M2, sk.Min, sk.Max, sk.Compression} {
		buf = le.AppendUint64(buf, math.Float64bits(f))
	}
	buf = le.AppendUint32(buf, uint32(len(sk.Centroids)))
	for _, c := range sk.Centroids {
		buf = le.AppendUint64(buf, math.Float64bits(c.Mean))
		buf = le.AppendUint64(buf, math.Float64bits(c.Weight))
	}
	return buf
}

// DecodeSketch decodes one AppendSketch encoding from the front of b and
// returns it with the bytes that follow. A sketch without centroids
// decodes with nil Centroids.
func DecodeSketch(b []byte) (ColumnSketch, []byte, error) {
	if len(b) < sketchHeaderBytes {
		return ColumnSketch{}, nil, errShortSketch
	}
	le := binary.LittleEndian
	f := func(i int) float64 { return math.Float64frombits(le.Uint64(b[8*i:])) }
	sk := ColumnSketch{
		Count:       int64(le.Uint64(b)),
		Mean:        f(1),
		M2:          f(2),
		Min:         f(3),
		Max:         f(4),
		Compression: f(5),
	}
	n := uint64(le.Uint32(b[48:]))
	b = b[sketchHeaderBytes:]
	if n > uint64(len(b))/16 {
		return ColumnSketch{}, nil, fmt.Errorf("%w: %d centroids declared, %d bytes left", errShortSketch, n, len(b))
	}
	if n > 0 {
		sk.Centroids = make([]stats.Centroid, n)
		for i := range sk.Centroids {
			sk.Centroids[i] = stats.Centroid{
				Mean:   math.Float64frombits(le.Uint64(b[16*i:])),
				Weight: math.Float64frombits(le.Uint64(b[16*i+8:])),
			}
		}
	}
	return sk, b[16*n:], nil
}
