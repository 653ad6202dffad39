package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"hepvine/internal/wire"
)

// Binary record bodies. A body is a tag byte naming the record's Kind, then
// every Record field in struct order in the internal/wire encoding: ints
// are varints, strings and byte slices a uvarint length and the bytes,
// Outputs and OutputSizes a count and their pairs sorted by key, and Spec a
// presence byte (0 = nil, 1 = present) followed by the TaskSpec fields in
// struct order, Inputs and Outputs as a count and their entries. One record
// always encodes to the same bytes.
//
// Every tag is below 0x20 and a JSON body starts with '{', so a body whose
// first byte is 0x20 or above is read as JSON: journals written before the
// binary body replay unchanged.
var kindTags = [...]Kind{
	1: KindTaskDef,
	2: KindDispatch,
	3: KindTaskDone,
	4: KindTaskFail,
	5: KindFileDecl,
	6: KindUnlink,
	7: KindLease,
}

func kindTag(k Kind) (byte, bool) {
	for tag, kind := range kindTags {
		if tag > 0 && kind == k {
			return byte(tag), true
		}
	}
	return 0, false
}

// appendFrame appends rec's frame — the 8-byte header (payload length,
// CRC-32C of the payload) and the binary body — to buf. On error buf comes
// back as it was.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	tag, ok := kindTag(rec.Kind)
	if !ok {
		return buf, fmt.Errorf("journal: unknown record kind %q", rec.Kind)
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = appendRecord(append(buf, tag), rec)
	body := buf[start+frameHeader:]
	if len(body) > maxRecord {
		return buf[:start], fmt.Errorf("journal: record too large (%d bytes)", len(body))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf, nil
}

// appendRecord appends rec's fields after the tag.
func appendRecord(b []byte, rec *Record) []byte {
	b = binary.AppendVarint(b, int64(rec.TaskID))
	b = wire.AppendStr(b, rec.DefHash)
	if s := rec.Spec; s == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = wire.AppendStr(b, s.Mode)
		b = wire.AppendStr(b, s.Library)
		b = wire.AppendStr(b, s.Func)
		b = wire.AppendStr(b, s.Args)
		b = binary.AppendUvarint(b, uint64(len(s.Inputs)))
		for _, in := range s.Inputs {
			b = wire.AppendStr(wire.AppendStr(b, in.Name), in.CacheName)
		}
		b = binary.AppendUvarint(b, uint64(len(s.Outputs)))
		for _, out := range s.Outputs {
			b = wire.AppendStr(b, out)
		}
		b = binary.AppendVarint(b, int64(s.Cores))
		b = binary.AppendVarint(b, s.Memory)
		b = wire.AppendStr(b, s.Queue)
		b = binary.AppendVarint(b, int64(s.Priority))
		b = binary.AppendVarint(b, s.DeadlineNanos)
	}
	b = wire.AppendMap(b, rec.Outputs, wire.AppendStr[string])
	b = wire.AppendMap(b, rec.OutputSizes, binary.AppendVarint)
	b = wire.AppendStr(b, rec.Worker)
	b = binary.AppendVarint(b, rec.ExecNanos)
	b = binary.AppendVarint(b, rec.SetupNanos)
	b = wire.AppendStr(b, rec.Error)
	b = wire.AppendStr(b, rec.CacheName)
	b = binary.AppendVarint(b, rec.Size)
	b = wire.AppendStr(b, rec.Path)
	return wire.AppendStr(b, rec.Data)
}

// decodeRecord decodes a CRC-checked payload in either encoding. Nothing
// in the returned record aliases data.
func decodeRecord(data []byte) (Record, error) {
	if len(data) == 0 || data[0] >= 0x20 {
		var rec Record
		err := json.Unmarshal(data, &rec)
		return rec, err
	}
	if int(data[0]) >= len(kindTags) || data[0] == 0 {
		return Record{}, fmt.Errorf("journal: unknown record tag %d", data[0])
	}
	r := wire.Reader{B: data[1:]}
	// Go evaluates the calls in a composite literal left to right, which is
	// the field order on the wire.
	rec := Record{
		Kind:        kindTags[data[0]],
		TaskID:      int(r.Varint()),
		DefHash:     r.Str(),
		Spec:        readSpec(&r),
		Outputs:     r.StrMap(),
		OutputSizes: r.VarintMap(),
		Worker:      r.Str(),
		ExecNanos:   r.Varint(),
		SetupNanos:  r.Varint(),
		Error:       r.Str(),
		CacheName:   r.Str(),
		Size:        r.Varint(),
		Path:        r.Str(),
		Data:        r.Bytes(),
	}
	if err := r.End(); err != nil {
		return Record{}, fmt.Errorf("journal: decoding %s record: %w", rec.Kind, err)
	}
	return rec, nil
}

func readSpec(r *wire.Reader) *TaskSpec {
	if !r.Bool() {
		return nil
	}
	s := &TaskSpec{
		Mode:    r.Str(),
		Library: r.Str(),
		Func:    r.Str(),
		Args:    r.Bytes(),
	}
	for n := r.Uvarint(); n > 0 && r.Err == nil; n-- {
		name := r.Str()
		s.Inputs = append(s.Inputs, FileRef{Name: name, CacheName: r.Str()})
	}
	for n := r.Uvarint(); n > 0 && r.Err == nil; n-- {
		s.Outputs = append(s.Outputs, r.Str())
	}
	s.Cores = int(r.Varint())
	s.Memory = r.Varint()
	s.Queue = r.Str()
	s.Priority = int(r.Varint())
	s.DeadlineNanos = r.Varint()
	return s
}
