package rootio

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Column encodings. Real NanoAOD stores most kinematics as float32 and
// counters as small integers; matching that matters because the simulation
// plane charges I/O by on-disk bytes, and column-selective reads are only
// realistic if bytes-per-branch are. The encoding is a property of the
// branch, recorded in the footer; readers decode transparently and always
// hand float64 to the analysis layer.
type Encoding uint8

// Supported encodings.
const (
	// EncF64 stores raw IEEE-754 doubles (8 bytes/value).
	EncF64 Encoding = iota
	// EncF32 stores single precision (4 bytes/value) — the NanoAOD norm
	// for kinematics. Values round-trip through float32.
	EncF32
	// EncVarint stores integer-valued columns (counts, run numbers, flags)
	// as zigzag varints — typically 1-2 bytes/value.
	EncVarint
)

func (e Encoding) String() string {
	switch e {
	case EncF64:
		return "f64"
	case EncF32:
		return "f32"
	case EncVarint:
		return "varint"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// valid reports whether the encoding is known.
func (e Encoding) valid() bool { return e <= EncVarint }

// quantize maps a value through the encoding's round trip, so writers can
// validate losslessness expectations up front.
func (e Encoding) quantize(v float64) float64 {
	switch e {
	case EncF32:
		return float64(float32(v))
	case EncVarint:
		return float64(int64(v))
	default:
		return v
	}
}

// storedLenOK reports whether a basket of length bytes can hold n values
// under the encoding: exactly 8 or 4 bytes per value for the fixed widths,
// 1 to MaxVarintLen64 bytes per value for varints. length must be
// non-negative.
func (e Encoding) storedLenOK(length, n int64) bool {
	switch e {
	case EncF64:
		return length%8 == 0 && length/8 == n
	case EncF32:
		return length%4 == 0 && length/4 == n
	case EncVarint:
		return n <= length && (length+binary.MaxVarintLen64-1)/binary.MaxVarintLen64 <= n
	default:
		return false
	}
}

// encodeColumn serializes values under the encoding.
func encodeColumn(e Encoding, vals []float64) ([]byte, error) {
	switch e {
	case EncF64:
		out := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		return out, nil
	case EncF32:
		out := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(float32(v)))
		}
		return out, nil
	case EncVarint:
		out := make([]byte, 0, len(vals))
		var buf [binary.MaxVarintLen64]byte
		for _, v := range vals {
			iv := int64(v)
			if float64(iv) != v {
				return nil, fmt.Errorf("rootio: varint branch holds non-integer value %v", v)
			}
			n := binary.PutVarint(buf[:], iv)
			out = append(out, buf[:n]...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("rootio: unknown encoding %v", e)
	}
}

// decodeColumnInto appends values [skip, skip+n) of a basket that stores
// nValues values under the encoding in data to dst. Fixed-width values are
// decoded straight from their byte offsets; varints before skip are stepped
// over.
func decodeColumnInto(dst []float64, e Encoding, data []byte, nValues, skip, n int64) ([]float64, error) {
	if !e.storedLenOK(int64(len(data)), nValues) || skip < 0 || n < 0 || skip+n > nValues {
		return nil, fmt.Errorf("rootio: %v basket of %d bytes cannot hold values [%d,%d) of %d", e, len(data), skip, skip+n, nValues)
	}
	switch e {
	case EncF64:
		base := len(dst)
		dst = slices.Grow(dst, int(n))[:base+int(n)]
		data = data[8*skip:]
		for i := range dst[base:] {
			dst[base+i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		return dst, nil
	case EncF32:
		base := len(dst)
		dst = slices.Grow(dst, int(n))[:base+int(n)]
		data = data[4*skip:]
		for i := range dst[base:] {
			dst[base+i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:])))
		}
		return dst, nil
	case EncVarint:
		for i := int64(0); i < skip+n; i++ {
			iv, k := binary.Varint(data)
			if k <= 0 {
				return nil, fmt.Errorf("rootio: corrupt varint basket")
			}
			data = data[k:]
			if i >= skip {
				dst = append(dst, float64(iv))
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("rootio: unknown encoding %v", e)
	}
}
