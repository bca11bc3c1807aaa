package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"testing"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/obs"
	"fuzzyprophet/internal/stats"
)

// diffShardResponse returns the first difference between two shard
// responses, comparing floats by their bits (NaN payloads, ±Inf and −0
// included) and traces by their JSON form; "" when they are identical.
func diffShardResponse(want, got *shardResponse) string {
	if len(want.Points) != len(got.Points) {
		return fmt.Sprintf("%d points, want %d", len(got.Points), len(want.Points))
	}
	for i := range want.Points {
		if want.Points[i].Rows != got.Points[i].Rows {
			return fmt.Sprintf("point %d: rows %d, want %d", i, got.Points[i].Rows, want.Points[i].Rows)
		}
		if d := diffShardResult(want.Points[i], got.Points[i]); d != "" {
			return fmt.Sprintf("point %d: %s", i, d)
		}
	}
	wt, _ := json.Marshal(want.Trace)
	gt, _ := json.Marshal(got.Trace)
	if !bytes.Equal(wt, gt) {
		return fmt.Sprintf("trace %s, want %s", gt, wt)
	}
	return ""
}

// diffShardResult compares vectors and sketches bit for bit.
func diffShardResult(want, got *fp.ShardResult) string {
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(want.Columns) != len(got.Columns) || len(want.Sketches) != len(got.Sketches) {
		return fmt.Sprintf("%d vectors/%d sketches, want %d/%d",
			len(got.Columns), len(got.Sketches), len(want.Columns), len(want.Sketches))
	}
	for name, wv := range want.Columns {
		gv, ok := got.Columns[name]
		if !ok || len(gv) != len(wv) {
			return fmt.Sprintf("column %q: %d values (present %v), want %d", name, len(gv), ok, len(wv))
		}
		for i := range wv {
			if !sameBits(wv[i], gv[i]) {
				return fmt.Sprintf("column %q[%d] = %v, want %v", name, i, gv[i], wv[i])
			}
		}
	}
	for name, ws := range want.Sketches {
		gs, ok := got.Sketches[name]
		if !ok {
			return fmt.Sprintf("sketch %q missing", name)
		}
		if ws.Count != gs.Count || len(ws.Centroids) != len(gs.Centroids) ||
			!sameBits(ws.Mean, gs.Mean) || !sameBits(ws.M2, gs.M2) || !sameBits(ws.Min, gs.Min) ||
			!sameBits(ws.Max, gs.Max) || !sameBits(ws.Compression, gs.Compression) {
			return fmt.Sprintf("sketch %q = %+v, want %+v", name, gs, ws)
		}
		for i, wc := range ws.Centroids {
			if gc := gs.Centroids[i]; !sameBits(wc.Mean, gc.Mean) || !sameBits(wc.Weight, gc.Weight) {
				return fmt.Sprintf("sketch %q centroid %d = %+v, want %+v", name, i, gc, wc)
			}
		}
	}
	return ""
}

// frameCases are the round-trip fixtures: empty results, sketch-only and
// full-vector answers, non-finite values, empty columns, a trace, a
// multi-point answer and a frame with no points.
func frameCases() map[string]*shardResponse {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	weird := math.Float64frombits(0x7ff4000000000abc) // a NaN with a payload
	one := func(res fp.ShardResult) []*fp.ShardResult { return []*fp.ShardResult{&res} }
	vectors := fp.ShardResult{Rows: 3, Columns: map[string][]float64{
		"demand": {1, 2, 3}, "capacity": {-1e308, 5e-324, 0},
	}}
	sketched := fp.ShardResult{
		Rows:     2,
		Columns:  map[string][]float64{"demand": {1.5, 2.5}},
		Sketches: map[string]fp.ColumnSketch{"demand": {Count: 2, Mean: 2, M2: 0.5, Min: 1.5, Max: 2.5, Compression: 200, Centroids: []stats.Centroid{{Mean: 1.5, Weight: 1}, {Mean: 2.5, Weight: 1}}}},
	}
	return map[string]*shardResponse{
		"empty":     {Points: one(fp.ShardResult{})},
		"rows-only": {Points: one(fp.ShardResult{Rows: 7})},
		"vectors":   {Points: one(vectors)},
		"non-finite": {Points: one(fp.ShardResult{
			Rows:    4,
			Columns: map[string][]float64{"x": {nan, inf, -inf, negZero}, "w": {weird}},
			Sketches: map[string]fp.ColumnSketch{
				"x": {Count: 4, Mean: nan, M2: nan, Min: -inf, Max: inf, Compression: 200,
					Centroids: []stats.Centroid{{Mean: -inf, Weight: 1}, {Mean: negZero, Weight: 1}, {Mean: inf, Weight: 1}}},
				"w": {Count: 1, Mean: weird, M2: negZero, Min: weird, Max: weird},
			},
		})},
		"empty-columns": {Points: one(fp.ShardResult{
			Columns:  map[string][]float64{"": {}, "overload": {}},
			Sketches: map[string]fp.ColumnSketch{"overload": {}, "sketch-only": {Compression: 200}},
		})},
		"traced": {
			Points: one(sketched),
			Trace: &obs.Node{Name: "worker-shard", StartUS: 3, DurUS: 99, Attrs: map[string]any{"lo": 0.0, "hi": 2.0},
				Children: []*obs.Node{{Name: "simulate", DurUS: 50}}},
		},
		"multi-point": {
			Points: []*fp.ShardResult{&vectors, {Rows: 7}, &sketched, {}},
			Trace:  &obs.Node{Name: "worker-shard", DurUS: 7, Attrs: map[string]any{"points": 4.0}},
		},
		"zero-point": {},
	}
}

// TestShardFrameRejectsPointCountMismatch: a frame whose point count says
// more or fewer points than its body holds is rejected, even with a valid
// checksum.
func TestShardFrameRejectsPointCountMismatch(t *testing.T) {
	for _, name := range []string{"multi-point", "traced", "zero-point"} {
		want := frameCases()[name]
		enc, err := encodeShardFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		for count := 0; count <= len(want.Points)+2; count++ {
			if count == len(want.Points) {
				continue
			}
			lied := bytes.Clone(enc[:len(enc)-4])
			binary.LittleEndian.PutUint32(lied[len(shardFrameMagic)+1:], uint32(count))
			lied = binary.LittleEndian.AppendUint32(lied, crc32.Checksum(lied, castagnoli))
			if got, err := decodeShardFrame(lied); err == nil {
				t.Errorf("%s: a frame of %d points claiming %d decoded to %d points", name, len(want.Points), count, len(got.Points))
			}
		}
	}
}

// TestShardFrameRoundTrip: decode∘encode is the identity, and every
// single-byte corruption and every truncation of a valid frame is
// rejected — a corrupted byte past the header by the CRC.
func TestShardFrameRoundTrip(t *testing.T) {
	for name, want := range frameCases() {
		t.Run(name, func(t *testing.T) {
			enc, err := encodeShardFrame(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeShardFrame(enc)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffShardResponse(want, got); d != "" {
				t.Fatal(d)
			}
			checkFrameRejections(t, enc, 0x01)
			checkFrameRejections(t, enc, 0xff)
		})
	}
}

// checkFrameRejections flips each byte of a valid frame by mask and cuts
// the frame at every length, asserting each damaged copy is rejected.
func checkFrameRejections(t *testing.T, enc []byte, mask byte) {
	t.Helper()
	damaged := make([]byte, len(enc))
	for i := range enc {
		copy(damaged, enc)
		damaged[i] ^= mask
		_, err := decodeShardFrame(damaged)
		if err == nil {
			t.Fatalf("frame with byte %d flipped by %#x decoded", i, mask)
		}
		if i > len(shardFrameMagic) && !errors.Is(err, errFrameCRC) {
			t.Fatalf("frame with byte %d flipped: %v, want a CRC mismatch", i, err)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeShardFrame(enc[:n]); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes decoded", n, len(enc))
		}
	}
}

// frameFromBytes builds a shard response from arbitrary fuzz input: its
// 8-byte words become the float payload of a vector, a sketch's moments
// and centroids, and an empty column; an odd length adds a trace, and the
// first byte repeats the point up to three more times.
func frameFromBytes(data []byte) *shardResponse {
	var vals []float64
	for i := 0; i+8 <= len(data); i += 8 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
	}
	at := func(i int) float64 {
		if i < len(vals) {
			return vals[i]
		}
		return 0
	}
	sk := fp.ColumnSketch{Count: int64(len(vals)), Mean: at(0), M2: at(1), Min: at(2), Max: at(3), Compression: at(4)}
	for i := 0; i+1 < len(vals); i += 2 {
		sk.Centroids = append(sk.Centroids, stats.Centroid{Mean: vals[i], Weight: vals[i+1]})
	}
	res := fp.ShardResult{
		Rows:     len(vals),
		Columns:  map[string][]float64{"vec": vals, string(data[:min(len(data), 4)]): {}},
		Sketches: map[string]fp.ColumnSketch{"vec": sk, "only": sk},
	}
	resp := &shardResponse{Points: []*fp.ShardResult{&res}}
	if len(data) > 0 {
		for range data[0] % 4 {
			resp.Points = append(resp.Points, &res)
		}
	}
	if len(data)%2 == 1 {
		resp.Trace = &obs.Node{Name: "worker-shard", DurUS: int64(len(data))}
	}
	return resp
}

// FuzzShardFrame: hostile, truncated or corrupted frames never panic the
// decoder; decode∘encode is the identity for any float payload (NaN, ±Inf
// and −0 included); and a single flipped byte in a valid frame is rejected
// by the CRC rather than merged.
func FuzzShardFrame(f *testing.F) {
	names := make([]string, 0, len(frameCases()))
	for name := range frameCases() {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		enc, err := encodeShardFrame(frameCases()[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{"rows":10,"columns":{"margin":[1,2,3]}}`))
	f.Add(append([]byte(shardFrameMagic), fp.ShardProtocolVersion))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: decode may fail, never panic; whatever decodes
		// re-encodes to a frame that decodes to the same response.
		if resp, err := decodeShardFrame(data); err == nil {
			enc, err := encodeShardFrame(resp)
			if err != nil {
				t.Fatalf("re-encoding a decoded frame: %v", err)
			}
			again, err := decodeShardFrame(enc)
			if err != nil {
				t.Fatalf("decoding a re-encoded frame: %v", err)
			}
			if d := diffShardResponse(resp, again); d != "" {
				t.Fatalf("re-encoded frame differs: %s", d)
			}
		}

		// A frame built from the input round-trips bit-exactly.
		want := frameFromBytes(data)
		enc, err := encodeShardFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeShardFrame(enc)
		if err != nil {
			t.Fatalf("decoding a valid frame: %v", err)
		}
		if d := diffShardResponse(want, got); d != "" {
			t.Fatal(d)
		}

		// One flipped byte past the magic and version is a CRC mismatch;
		// any truncation is an error.
		if len(data) > 0 {
			pos := len(shardFrameMagic) + 1 + int(data[0])*len(data)%(len(enc)-len(shardFrameMagic)-1)
			damaged := bytes.Clone(enc)
			damaged[pos] ^= data[len(data)-1] | 1
			if _, err := decodeShardFrame(damaged); !errors.Is(err, errFrameCRC) {
				t.Fatalf("byte %d flipped: %v, want a CRC mismatch", pos, err)
			}
			if _, err := decodeShardFrame(enc[:int(data[0])*len(data)%len(enc)]); err == nil {
				t.Fatal("truncated frame decoded")
			}
		}
	})
}
