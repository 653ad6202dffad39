package vine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"hepvine/internal/wire"
)

// Binary frame bodies. Every task crosses the control channel twice, as a
// dispatch and as a task_done, so those two frames skip JSON: a body whose
// first byte is a tag below 0x20 is binary, and since a JSON body starts
// with '{' no other flag is needed. Every other frame type stays JSON.
//
// Layout after the tag, in the internal/wire encoding: ints are varints;
// strings and Args are a uvarint length and the bytes; Inputs and Outputs
// are a uvarint count and then (name, cachename, path) triples;
// OutputSizes is a uvarint count and its pairs sorted by key so the
// encoding is canonical. Fields appear in struct order.
const (
	tagDispatch byte = 1
	tagTaskDone byte = 2
)

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
	b = wire.AppendStr(b, d.Mode)
	b = wire.AppendStr(b, d.Library)
	b = wire.AppendStr(b, d.Func)
	b = wire.AppendStr(b, d.Args)
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
	b = wire.AppendStr(b, t.Error)
	b = wire.AppendMap(b, t.OutputSizes, binary.AppendVarint)
	b = binary.AppendVarint(b, t.ExecNanos)
	b = binary.AppendVarint(b, t.SetupNanos)
	return wire.AppendStr(b, t.Stale)
}

func appendRefs(b []byte, refs []fileRefWire) []byte {
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for _, r := range refs {
		b = wire.AppendStr(b, r.Name)
		b = wire.AppendStr(b, r.CacheName)
		b = wire.AppendStr(b, r.Path)
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

// decodeBinary decodes a binary body (see internal/wire for how untrusted
// counts and strings are handled).
func decodeBinary(data []byte) (*message, error) {
	r := wire.Reader{B: data[1:]}
	var m *message
	// Go evaluates the calls in a composite literal left to right, which
	// is the field order on the wire.
	switch data[0] {
	case tagDispatch:
		m = &message{Type: msgDispatch, Dispatch: &dispatchMsg{
			TaskID:  int(r.Varint()),
			Mode:    r.Str(),
			Library: r.Str(),
			Func:    r.Str(),
			Args:    r.Bytes(),
			Inputs:  readRefs(&r),
			Outputs: readRefs(&r),
			Cores:   int(r.Varint()),
			Memory:  r.Varint(),
		}}
	case tagTaskDone:
		m = &message{Type: msgTaskDone, TaskDone: &taskDoneMsg{
			TaskID:      int(r.Varint()),
			OK:          r.Bool(),
			Error:       r.Str(),
			OutputSizes: r.VarintMap(),
			ExecNanos:   r.Varint(),
			SetupNanos:  r.Varint(),
			Stale:       r.Str(),
		}}
	default:
		return nil, fmt.Errorf("unknown binary tag %d", data[0])
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return m, nil
}

func readRefs(r *wire.Reader) []fileRefWire {
	var refs []fileRefWire
	for n := r.Uvarint(); n > 0 && r.Err == nil; n-- {
		refs = append(refs, fileRefWire{Name: r.Str(), CacheName: r.Str(), Path: r.Str()})
	}
	return refs
}
