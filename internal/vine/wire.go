package vine

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Binary frame bodies. Every task crosses the control channel twice, as a
// dispatch and as a task_done, so those two frames skip JSON: a body whose
// first byte is a tag below 0x20 is binary, and since a JSON body starts
// with '{' no other flag is needed. Every other frame type stays JSON.
//
// Layout after the tag: ints are varints; strings and Args are a uvarint
// length and the bytes; Inputs, Outputs and OutputSizes are a uvarint count
// and then their pairs, OutputSizes sorted by key so the encoding is
// canonical. Fields appear in struct order.
const (
	tagDispatch byte = 1
	tagTaskDone byte = 2
)

var errTruncated = errors.New("truncated field")

// appendFrame appends m's 8-byte header (length, CRC-32C of the body) and
// body to buf. On error buf comes back as it was.
func appendFrame(buf []byte, m *message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, 8)...)
	switch {
	case m.Type == msgDispatch && m.Dispatch != nil:
		buf = appendDispatch(buf, m.Dispatch)
	case m.Type == msgTaskDone && m.TaskDone != nil:
		buf = appendTaskDone(buf, m.TaskDone)
	default:
		data, err := json.Marshal(m)
		if err != nil {
			return buf[:start], fmt.Errorf("vine: encoding %s: %w", m.Type, err)
		}
		buf = append(buf, data...)
	}
	body := buf[start+8:]
	if len(body) > maxFrame {
		return buf[:start], fmt.Errorf("vine: frame too large (%d bytes)", len(body))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf, nil
}

func appendDispatch(b []byte, d *dispatchMsg) []byte {
	b = append(b, tagDispatch)
	b = binary.AppendVarint(b, int64(d.TaskID))
	b = appendStr(b, d.Mode)
	b = appendStr(b, d.Library)
	b = appendStr(b, d.Func)
	b = appendStr(b, d.Args)
	b = appendRefs(b, d.Inputs)
	b = appendRefs(b, d.Outputs)
	b = binary.AppendVarint(b, int64(d.Cores))
	return binary.AppendVarint(b, d.Memory)
}

func appendTaskDone(b []byte, t *taskDoneMsg) []byte {
	b = append(b, tagTaskDone)
	b = binary.AppendVarint(b, int64(t.TaskID))
	ok := byte(0)
	if t.OK {
		ok = 1
	}
	b = append(b, ok)
	b = appendStr(b, t.Error)
	b = binary.AppendUvarint(b, uint64(len(t.OutputSizes)))
	// Room for the usual handful of outputs without a heap allocation.
	keys := make([]string, 0, 8)
	for k := range t.OutputSizes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendStr(b, k)
		b = binary.AppendVarint(b, t.OutputSizes[k])
	}
	b = binary.AppendVarint(b, t.ExecNanos)
	return binary.AppendVarint(b, t.SetupNanos)
}

func appendStr[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendRefs(b []byte, refs []fileRefWire) []byte {
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, r := range refs {
		b = appendStr(b, r.Name)
		b = appendStr(b, r.CacheName)
	}
	return b
}

// decodeBody decodes a CRC-checked frame body in either encoding.
func decodeBody(data []byte) (*message, error) {
	if len(data) > 0 && data[0] < 0x20 {
		m, err := decodeBinary(data)
		if err != nil {
			return nil, fmt.Errorf("vine: decoding frame: %w", err)
		}
		return m, nil
	}
	var m message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("vine: decoding frame: %w", err)
	}
	return &m, nil
}

// decodeBinary decodes a binary body. The body is untrusted: counts are
// never used to size an allocation (entries are appended as they parse, so
// a forged count costs what the frame carries), and strings and Args are
// copied out of the frame buffer.
func decodeBinary(data []byte) (*message, error) {
	r := wireReader{b: data[1:]}
	var m *message
	// Go evaluates the calls in a composite literal left to right, which
	// is the field order on the wire.
	switch data[0] {
	case tagDispatch:
		m = &message{Type: msgDispatch, Dispatch: &dispatchMsg{
			TaskID:  int(r.varint()),
			Mode:    r.str(),
			Library: r.str(),
			Func:    r.str(),
			Args:    r.bytes(),
			Inputs:  r.refs(),
			Outputs: r.refs(),
			Cores:   int(r.varint()),
			Memory:  r.varint(),
		}}
	case tagTaskDone:
		m = &message{Type: msgTaskDone, TaskDone: &taskDoneMsg{
			TaskID:      int(r.varint()),
			OK:          r.bool(),
			Error:       r.str(),
			OutputSizes: r.sizes(),
			ExecNanos:   r.varint(),
			SetupNanos:  r.varint(),
		}}
	default:
		return nil, fmt.Errorf("unknown binary tag %d", data[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) > 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return m, nil
}

// wireReader consumes a binary body. The first error sticks and every
// later read returns a zero value, so a decoder checks once at the end.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) bool() bool {
	if len(r.b) == 0 {
		r.fail(errTruncated)
		return false
	}
	v := r.b[0]
	if v > 1 {
		r.fail(fmt.Errorf("bool byte %d", v))
		return false
	}
	r.b = r.b[1:]
	return v == 1
}

// raw returns the next length-prefixed field, still aliasing the frame.
func (r *wireReader) raw() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail(errTruncated)
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *wireReader) str() string { return string(r.raw()) }

// bytes copies; an empty field decodes to nil, as JSON's omitempty does.
func (r *wireReader) bytes() []byte {
	if v := r.raw(); len(v) > 0 {
		return append([]byte(nil), v...)
	}
	return nil
}

func (r *wireReader) refs() []fileRefWire {
	var refs []fileRefWire
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		name := r.str()
		refs = append(refs, fileRefWire{Name: name, CacheName: r.str()})
	}
	return refs
}

// sizes reads OutputSizes, whose keys must be strictly increasing: that
// rules out duplicates and keeps the encoding canonical both ways.
func (r *wireReader) sizes() map[string]int64 {
	var m map[string]int64
	prev := ""
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		k := r.str()
		v := r.varint()
		if m == nil {
			m = make(map[string]int64)
		} else if k <= prev {
			r.fail(fmt.Errorf("output_sizes key %q out of order", k))
		}
		m[k] = v
		prev = k
	}
	return m
}
