// Package wire is the binary field encoding shared by the control-frame
// bodies (internal/vine) and the run journal's records (internal/journal).
// Ints are varints; strings and byte slices are a uvarint length and the
// bytes; a string-keyed map is a uvarint count and its pairs sorted by key,
// so one map always encodes to the same bytes.
//
// Decoding is canonical too: a Reader refuses a varint with more bytes than
// its value needs, so a record has exactly one encoding.
//
// Everything a Reader decodes is untrusted: a claimed count never sizes an
// allocation (entries are appended as they parse, so a forged count costs
// only what the input carries), and strings and byte slices are copied out
// of the input buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrTruncated reports a field that runs past the end of its input.
var ErrTruncated = errors.New("truncated field")

// AppendStr appends s as a uvarint length and the bytes.
func AppendStr[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendMap appends m as a uvarint count and its pairs in key order, each
// value written by val.
func AppendMap[V any](b []byte, m map[string]V, val func([]byte, V) []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	// Room for the usual handful of keys without a heap allocation.
	keys := make([]string, 0, 8)
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = val(AppendStr(b, k), m[k])
	}
	return b
}

// Reader consumes a binary body. The first error sticks and every later
// read returns a zero value, so a decoder checks once, at End.
type Reader struct {
	B   []byte
	Err error
}

// fail records err (unless an earlier error is already recorded) and drops
// the rest of the input.
func (r *Reader) fail(err error) {
	if r.Err == nil {
		r.Err = err
	}
	r.B = nil
}

// End reports the first error, or an error if input is left over.
func (r *Reader) End() error {
	if r.Err != nil {
		return r.Err
	}
	if len(r.B) > 0 {
		return fmt.Errorf("%d trailing bytes", len(r.B))
	}
	return nil
}

// ErrNonMinimal reports a varint written with more bytes than its value
// needs, such as 80 00 for 0. Accepting one would let two byte strings
// decode to the same record.
var ErrNonMinimal = errors.New("non-minimal varint")

func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.B)
	if r.advance(n) {
		return v
	}
	return 0
}

func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.B)
	if r.advance(n) {
		return v
	}
	return 0
}

// advance consumes a varint of n bytes as binary.Uvarint or Varint
// reported it. The encoders never end a multi-byte varint with a zero
// byte, so one that does is refused.
func (r *Reader) advance(n int) bool {
	switch {
	case n <= 0:
		r.fail(ErrTruncated)
		return false
	case n > 1 && r.B[n-1] == 0:
		r.fail(ErrNonMinimal)
		return false
	}
	r.B = r.B[n:]
	return true
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if len(r.B) == 0 {
		r.fail(ErrTruncated)
		return false
	}
	v := r.B[0]
	if v > 1 {
		r.fail(fmt.Errorf("bool byte %d", v))
		return false
	}
	r.B = r.B[1:]
	return v == 1
}

// raw returns the next length-prefixed field, still aliasing the input.
func (r *Reader) raw() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.B)) {
		r.fail(ErrTruncated)
		return nil
	}
	v := r.B[:n]
	r.B = r.B[n:]
	return v
}

func (r *Reader) Str() string { return string(r.raw()) }

// Bytes copies; an empty field decodes to nil, as JSON's omitempty does.
func (r *Reader) Bytes() []byte {
	if v := r.raw(); len(v) > 0 {
		return append([]byte(nil), v...)
	}
	return nil
}

// StrMap reads a map[string]string written by AppendMap; VarintMap reads
// a map[string]int64. Keys must be strictly increasing, which rules out
// duplicates and keeps the encoding canonical both ways. An empty map
// decodes to nil. (Two methods, not one generic function taking a value
// reader: calling through a func value would move the Reader to the heap.)
func (r *Reader) StrMap() map[string]string {
	var m map[string]string
	prev := ""
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err == nil; i++ {
		k := r.mapKey(i, prev)
		if m == nil {
			m = make(map[string]string)
		}
		m[k] = r.Str()
		prev = k
	}
	return m
}

func (r *Reader) VarintMap() map[string]int64 {
	var m map[string]int64
	prev := ""
	for i, n := uint64(0), r.Uvarint(); i < n && r.Err == nil; i++ {
		k := r.mapKey(i, prev)
		if m == nil {
			m = make(map[string]int64)
		}
		m[k] = r.Varint()
		prev = k
	}
	return m
}

// mapKey reads the key of entry i and checks that it follows prev.
func (r *Reader) mapKey(i uint64, prev string) string {
	k := r.Str()
	if i > 0 && k <= prev {
		r.fail(fmt.Errorf("map key %q out of order", k))
	}
	return k
}
