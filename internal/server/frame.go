package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	fp "fuzzyprophet"
	"fuzzyprophet/internal/aggregate"
	"fuzzyprophet/internal/obs"
)

// The shard response frame: the body of every 200 answer from
// POST /shard/render (wire protocol v4). Little-endian throughout:
//
//	magic "FPSF" | version uint8 (= fp.ShardProtocolVersion)
//	point count uint32, then per point, in request order:
//	    rows uint64
//	    column count uint32, then per column, in name order:
//	        name length uint32 | name | flags uint8 (frameVector | frameSketch)
//	        vector: length uint64 | that many float64   (when frameVector)
//	        sketch: aggregate.AppendSketch encoding       (when frameSketch)
//	trace length uint32 | the worker's obs.Node as JSON (length 0 = none)
//	CRC-32C (Castagnoli) uint32 over every preceding byte
//
// One trace and one checksum cover the whole frame. Floats travel as their
// bits, so NaN, ±Inf and −0 arrive exactly as the worker computed them.
// The decoder checks the CRC before it parses, so a corrupted or truncated
// body is a decode error (a failed attempt the coordinator retries), never
// a merged partial result.

const shardFrameMagic = "FPSF"

// shardFrameContentType labels frame bodies; error answers stay JSON.
const shardFrameContentType = "application/x-fp-shard-frame"

// Per-column presence flags.
const (
	frameVector = 1 << iota
	frameSketch
)

// shardFrameHeaderBytes is magic + version + point count.
const shardFrameHeaderBytes = len(shardFrameMagic) + 1 + 4

// shardPointHeaderBytes is one point's rows + column count.
const shardPointHeaderBytes = 8 + 4

// castagnoli is the CRC-32C table, the checksum colstore spill files use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// shardResponse is a decoded shard answer: one partial result per point of
// the request, in request order, plus the worker's span tree, present only
// when the request carried X-FP-Trace.
type shardResponse struct {
	Points []*fp.ShardResult
	Trace  *obs.Node
}

// encodeShardFrame serializes resp as one frame. It fails only when the
// trace does not marshal.
func encodeShardFrame(resp *shardResponse) ([]byte, error) {
	var trace []byte
	if resp.Trace != nil {
		var err error
		if trace, err = json.Marshal(resp.Trace); err != nil {
			return nil, err
		}
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, shardFrameHeaderBytes+4+len(trace)+4)
	buf = append(buf, shardFrameMagic...)
	buf = append(buf, fp.ShardProtocolVersion)
	buf = le.AppendUint32(buf, uint32(len(resp.Points)))
	for _, res := range resp.Points {
		buf = appendFramePoint(buf, res)
	}
	buf = le.AppendUint32(buf, uint32(len(trace)))
	buf = append(buf, trace...)
	return le.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// appendFramePoint appends one point's rows and columns to buf.
func appendFramePoint(buf []byte, res *fp.ShardResult) []byte {
	names := make([]string, 0, len(res.Sketches)+len(res.Columns))
	size := shardPointHeaderBytes
	for name, vec := range res.Columns {
		names = append(names, name)
		size += 8 + len(name) + 8*len(vec)
	}
	for name, sk := range res.Sketches {
		if _, dup := res.Columns[name]; !dup {
			names = append(names, name)
		}
		size += 8 + len(name) + 64 + 16*len(sk.Centroids)
	}
	slices.Sort(names)

	le := binary.LittleEndian
	buf = slices.Grow(buf, size)
	buf = le.AppendUint64(buf, uint64(res.Rows))
	buf = le.AppendUint32(buf, uint32(len(names)))
	for _, name := range names {
		buf = le.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
		vec, hasVec := res.Columns[name]
		sk, hasSketch := res.Sketches[name]
		var flags byte
		if hasVec {
			flags |= frameVector
		}
		if hasSketch {
			flags |= frameSketch
		}
		buf = append(buf, flags)
		if hasVec {
			buf = le.AppendUint64(buf, uint64(len(vec)))
			for _, x := range vec {
				buf = le.AppendUint64(buf, math.Float64bits(x))
			}
		}
		if hasSketch {
			buf = aggregate.AppendSketch(buf, sk)
		}
	}
	return buf
}

var (
	// errShortFrame reports a frame cut off before a declared field ends.
	errShortFrame = errors.New("shard frame: truncated")
	// errFrameCRC reports a frame whose bytes do not match its checksum.
	errFrameCRC = errors.New("shard frame: CRC-32C mismatch")
)

// decodeShardFrame parses one frame. Every failure — wrong magic or
// version, CRC mismatch, truncation, a malformed field, a point count the
// body does not hold, trailing bytes — is an error; the decoder never
// panics and never allocates beyond what the frame's own length can hold.
func decodeShardFrame(raw []byte) (*shardResponse, error) {
	if len(raw) < shardFrameHeaderBytes+4+4 {
		return nil, errShortFrame
	}
	if string(raw[:len(shardFrameMagic)]) != shardFrameMagic {
		return nil, errors.New("shard frame: bad magic (not a shard frame)")
	}
	if v := raw[len(shardFrameMagic)]; v != fp.ShardProtocolVersion {
		return nil, fmt.Errorf("shard frame: version %d, want %d", v, fp.ShardProtocolVersion)
	}
	le := binary.LittleEndian
	body := raw[:len(raw)-4]
	if got, want := crc32.Checksum(body, castagnoli), le.Uint32(raw[len(body):]); got != want {
		return nil, fmt.Errorf("%w (computed %08x, trailer %08x)", errFrameCRC, got, want)
	}

	b := body[len(shardFrameMagic)+1:]
	npoints := le.Uint32(b)
	b = b[4:]
	// Every point takes at least its row and column counts.
	if uint64(npoints) > uint64(len(b))/shardPointHeaderBytes {
		return nil, errShortFrame
	}
	resp := &shardResponse{Points: make([]*fp.ShardResult, npoints)}
	for i := range resp.Points {
		resp.Points[i] = &fp.ShardResult{}
		var err error
		if b, err = decodeFramePoint(b, resp.Points[i]); err != nil {
			return nil, err
		}
	}
	if len(b) < 4 {
		return nil, errShortFrame
	}
	n := uint64(le.Uint32(b))
	b = b[4:]
	if n != uint64(len(b)) {
		return nil, fmt.Errorf("shard frame: trace of %d bytes with %d bytes left", n, len(b))
	}
	if n > 0 {
		if err := json.Unmarshal(b, &resp.Trace); err != nil {
			return nil, fmt.Errorf("shard frame: bad trace: %w", err)
		}
	}
	return resp, nil
}

// decodeFramePoint parses one point into res and returns the bytes after
// it.
func decodeFramePoint(b []byte, res *fp.ShardResult) ([]byte, error) {
	if len(b) < shardPointHeaderBytes {
		return nil, errShortFrame
	}
	le := binary.LittleEndian
	rows := le.Uint64(b)
	if rows > math.MaxInt32 {
		return nil, fmt.Errorf("shard frame: %d rows", rows)
	}
	res.Rows = int(rows)
	ncols := le.Uint32(b[8:])
	b = b[shardPointHeaderBytes:]
	// Every column takes at least its name length and flags byte.
	if uint64(ncols) > uint64(len(b))/5 {
		return nil, errShortFrame
	}
	for i := uint32(0); i < ncols; i++ {
		if len(b) < 4 {
			return nil, errShortFrame
		}
		n := uint64(le.Uint32(b))
		if n+1 > uint64(len(b)-4) {
			return nil, errShortFrame
		}
		name, flags := string(b[4:4+n]), b[4+n]
		b = b[5+n:]
		if flags == 0 || flags&^(frameVector|frameSketch) != 0 {
			return nil, fmt.Errorf("shard frame: column %q has flags %#x", name, flags)
		}
		if _, dup := res.Columns[name]; dup {
			return nil, fmt.Errorf("shard frame: duplicate column %q", name)
		}
		if _, dup := res.Sketches[name]; dup {
			return nil, fmt.Errorf("shard frame: duplicate column %q", name)
		}
		if flags&frameVector != 0 {
			if len(b) < 8 {
				return nil, errShortFrame
			}
			n := le.Uint64(b)
			b = b[8:]
			if n > uint64(len(b))/8 {
				return nil, errShortFrame
			}
			vec := make([]float64, n)
			for j := range vec {
				vec[j] = math.Float64frombits(le.Uint64(b[8*j:]))
			}
			b = b[8*n:]
			if res.Columns == nil {
				res.Columns = make(map[string][]float64)
			}
			res.Columns[name] = vec
		}
		if flags&frameSketch != 0 {
			sk, rest, err := aggregate.DecodeSketch(b)
			if err != nil {
				return nil, fmt.Errorf("shard frame: column %q: %w", name, err)
			}
			b = rest
			if res.Sketches == nil {
				res.Sketches = make(map[string]fp.ColumnSketch)
			}
			res.Sketches[name] = sk
		}
	}
	return b, nil
}
