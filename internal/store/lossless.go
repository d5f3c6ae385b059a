package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"avr/internal/lossless"
)

// Lossless fallback encoding for blocks whose AVR ratio falls below the
// store's floor: the raw little-endian value bytes are cut into 64-byte
// cachelines (the trailing partial line zero-padded) and each line is
// BDI-encoded (internal/lossless). BDI round-trips bit-exactly, so
// fallback blocks reconstruct their values exactly — the store's analog
// of the paper's "store uncompressed when approximation does not pay",
// with the lossless link-layer compressor still squeezing what it can.
//
// Frame: concatenated BDI line encodings. Each line encoding is
// self-delimiting — its first byte is the BDI form tag, which fixes the
// payload length — so no per-line length prefix is needed. Decoding
// validates the tag and the remaining length before touching
// lossless.Decode, which assumes well-formed input.

// bdiLineLen returns the full encoded length (tag byte included) for a
// BDI form tag, or 0 for an invalid tag.
func bdiLineLen(tag byte) int {
	switch tag {
	case 0: // raw
		return 1 + lossless.LineBytes
	case 1: // zeros
		return 2
	case 8: // repeated 8-byte value
		return 9
	case 2: // base8-Δ1
		return 1 + 8 + 8
	case 3: // base8-Δ2
		return 1 + 8 + 16
	case 4: // base4-Δ1
		return 1 + 4 + 16
	case 5: // base8-Δ4
		return 1 + 8 + 32
	case 6: // base4-Δ2
		return 1 + 4 + 32
	case 7: // base2-Δ1
		return 1 + 2 + 32
	}
	return 0
}

// appendLossless32 appends the BDI encoding of vals' little-endian bytes
// to dst without intermediate allocation: 16 values per BDI line, the
// trailing partial line zero-padded.
func appendLossless32(dst []byte, vals []float32) []byte {
	var line [lossless.LineBytes]byte
	const perLine = lossless.LineBytes / 4
	for off := 0; off < len(vals); off += perLine {
		end := off + perLine
		if end > len(vals) {
			clear(line[:])
			end = len(vals)
		}
		for i, v := range vals[off:end] {
			binary.LittleEndian.PutUint32(line[4*i:], math.Float32bits(v))
		}
		dst = lossless.AppendEncode(dst, line[:])
	}
	return dst
}

// appendLossless64 is appendLossless32 for fp64 (8 values per line).
func appendLossless64(dst []byte, vals []float64) []byte {
	var line [lossless.LineBytes]byte
	const perLine = lossless.LineBytes / 8
	for off := 0; off < len(vals); off += perLine {
		end := off + perLine
		if end > len(vals) {
			clear(line[:])
			end = len(vals)
		}
		for i, v := range vals[off:end] {
			binary.LittleEndian.PutUint64(line[8*i:], math.Float64bits(v))
		}
		dst = lossless.AppendEncode(dst, line[:])
	}
	return dst
}

// decodeLossless32To appends valCount fp32 values decoded from BDI
// lines to dst without allocating, validating every tag and length so
// corrupt payloads surface as ErrCorrupt (byte counts in messages, no
// trailing bytes allowed) rather than panics inside the line decoder.
func decodeLossless32To(dst []float32, data []byte, valCount int) ([]float32, error) {
	rawLen := 4 * valCount
	var line [lossless.LineBytes]byte
	for produced := 0; produced < rawLen; produced += lossless.LineBytes {
		if len(data) == 0 {
			return nil, fmt.Errorf("%w: lossless payload exhausted at %d/%d bytes",
				ErrCorrupt, produced, rawLen)
		}
		n := bdiLineLen(data[0])
		if n == 0 || n > len(data) {
			return nil, fmt.Errorf("%w: bad lossless line tag %d", ErrCorrupt, data[0])
		}
		lossless.DecodeInto(line[:], data[:n])
		data = data[n:]
		take := rawLen - produced
		if take > lossless.LineBytes {
			take = lossless.LineBytes
		}
		for i := 0; i < take; i += 4 {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(line[i:])))
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing lossless bytes", ErrCorrupt, len(data))
	}
	return dst, nil
}

// decodeLossless64To is decodeLossless32To for fp64 values.
func decodeLossless64To(dst []float64, data []byte, valCount int) ([]float64, error) {
	rawLen := 8 * valCount
	var line [lossless.LineBytes]byte
	for produced := 0; produced < rawLen; produced += lossless.LineBytes {
		if len(data) == 0 {
			return nil, fmt.Errorf("%w: lossless payload exhausted at %d/%d bytes",
				ErrCorrupt, produced, rawLen)
		}
		n := bdiLineLen(data[0])
		if n == 0 || n > len(data) {
			return nil, fmt.Errorf("%w: bad lossless line tag %d", ErrCorrupt, data[0])
		}
		lossless.DecodeInto(line[:], data[:n])
		data = data[n:]
		take := rawLen - produced
		if take > lossless.LineBytes {
			take = lossless.LineBytes
		}
		for i := 0; i < take; i += 8 {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(line[i:])))
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing lossless bytes", ErrCorrupt, len(data))
	}
	return dst, nil
}
