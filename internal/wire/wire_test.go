package wire

import (
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"runtime"
	"testing"
)

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// record is one body of every field kind, written in a fixed order.
type record struct {
	i   int64
	u   uint64
	ok  bool
	s   string
	raw []byte
	sm  map[string]string
	vm  map[string]int64
}

func (rc record) append(b []byte) []byte {
	b = appendVarint(b, rc.i)
	b = binary.AppendUvarint(b, rc.u)
	b = appendBool(b, rc.ok)
	b = AppendStr(b, rc.s)
	b = AppendStr(b, rc.raw)
	b = AppendMap(b, rc.sm, AppendStr[string])
	return AppendMap(b, rc.vm, appendVarint)
}

func (rc record) equal(o record) bool {
	return rc.i == o.i && rc.u == o.u && rc.ok == o.ok && rc.s == o.s &&
		string(rc.raw) == string(o.raw) && maps.Equal(rc.sm, o.sm) && maps.Equal(rc.vm, o.vm)
}

func readRecord(b []byte) (record, error) {
	r := Reader{B: b}
	rc := record{
		i: r.Varint(), u: r.Uvarint(), ok: r.Bool(), s: r.Str(), raw: r.Bytes(),
		sm: r.StrMap(), vm: r.VarintMap(),
	}
	return rc, r.End()
}

var records = []record{
	{},
	{i: -1, u: 1, ok: true, s: "x", raw: []byte{0}},
	{
		i: math.MinInt64, u: math.MaxUint64, ok: true, s: "blob:ab\x00cd", raw: []byte("payload"),
		sm: map[string]string{"b": "2", "a": "1", "": "empty key"},
		vm: map[string]int64{"out:z": 1 << 40, "out:a": -7},
	},
	{i: math.MaxInt64, sm: map[string]string{"only": ""}, vm: map[string]int64{"k": 0}},
}

func TestRoundTrip(t *testing.T) {
	for i, want := range records {
		got, err := readRecord(want.append(nil))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !got.equal(want) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
		// Empty byte slices and maps decode to nil, as omitempty JSON does.
		if len(want.raw) == 0 && got.raw != nil || len(want.sm) == 0 && got.sm != nil || len(want.vm) == 0 && got.vm != nil {
			t.Fatalf("record %d: empty field decoded non-nil: %+v", i, got)
		}
	}
}

// A map encodes to the same bytes whatever order its keys were inserted in.
func TestAppendMapCanonical(t *testing.T) {
	a := map[string]int64{}
	b := map[string]int64{}
	keys := []string{"d", "a", "c", "b", "e", "out:1", "out:0", "z", "y", "x"}
	for i, k := range keys {
		a[k] = int64(i)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b[keys[i]] = int64(i)
	}
	if x, y := AppendMap(nil, a, appendVarint), AppendMap(nil, b, appendVarint); string(x) != string(y) {
		t.Fatalf("same map, two encodings:\n%x\n%x", x, y)
	}
}

func TestRejectsTruncation(t *testing.T) {
	full := records[2].append(nil)
	for n := 0; n < len(full); n++ {
		if _, err := readRecord(full[:n]); err == nil {
			t.Fatalf("record cut to %d of %d bytes decoded without error", n, len(full))
		}
	}
}

func TestRejectsTrailingBytes(t *testing.T) {
	if _, err := readRecord(append(records[1].append(nil), 0)); err == nil {
		t.Fatal("a trailing byte decoded without error")
	}
}

func TestRejectsBadBool(t *testing.T) {
	r := Reader{B: []byte{2}}
	if r.Bool(); r.End() == nil {
		t.Fatal("bool byte 2 decoded without error")
	}
}

func TestRejectsOutOfOrderKeys(t *testing.T) {
	for _, keys := range [][]string{{"b", "a"}, {"a", "a"}} {
		b := binary.AppendUvarint(nil, uint64(len(keys)))
		for _, k := range keys {
			b = AppendStr(AppendStr(b, k), "v")
		}
		r := Reader{B: b}
		if m := r.StrMap(); r.End() == nil {
			t.Fatalf("keys %q decoded as %v without error", keys, m)
		}
		b = binary.AppendUvarint(nil, uint64(len(keys)))
		for _, k := range keys {
			b = appendVarint(AppendStr(b, k), 1)
		}
		r = Reader{B: b}
		if m := r.VarintMap(); r.End() == nil {
			t.Fatalf("keys %q decoded as %v without error", keys, m)
		}
	}
}

// A claimed count or length larger than the bytes left fails as truncation
// and allocates nothing on the claim's word.
func TestRejectsOverclaimedCount(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	oneEntry := AppendStr(AppendStr(binary.AppendUvarint(nil, 1<<40), "k"), "v")
	cases := map[string]func(*Reader){
		"Str":       func(r *Reader) { r.Str() },
		"Bytes":     func(r *Reader) { r.Bytes() },
		"StrMap":    func(r *Reader) { r.StrMap() },
		"VarintMap": func(r *Reader) { r.VarintMap() },
	}
	for name, read := range cases {
		for _, in := range [][]byte{huge, append(huge, 'x'), oneEntry} {
			r := Reader{B: in}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			read(&r)
			runtime.ReadMemStats(&after)
			if !errors.Is(r.Err, ErrTruncated) {
				t.Fatalf("%s over %x: err %v, want ErrTruncated", name, in, r.Err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
				t.Fatalf("%s over %x: allocated %d bytes for a %d-byte input", name, in, n, len(in))
			}
		}
	}
}

// A varint written with more bytes than its value needs is refused, in
// every place one appears: a bare value, a string length, a map count.
func TestRejectsNonMinimalVarints(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(*Reader)
	}{
		{"uvarint 0 as 80 00", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"varint 0 as 80 00", []byte{0x80, 0x00}, func(r *Reader) { r.Varint() }},
		{"uvarint 1 as 81 80 00", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"uvarint in ten bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		{"string length 1 as 81 80 00", []byte{0x81, 0x80, 0x00, 'x'}, func(r *Reader) { r.Str() }},
		{"bytes length 1 as 81 00", []byte{0x81, 0x00, 'x'}, func(r *Reader) { r.Bytes() }},
		{"map count 0 as 80 00", []byte{0x80, 0x00}, func(r *Reader) { r.StrMap() }},
		{"map value 0 as 80 00", []byte{0x01, 0x01, 'k', 0x80, 0x00}, func(r *Reader) { r.VarintMap() }},
	}
	for _, c := range cases {
		r := Reader{B: c.in}
		c.read(&r)
		if !errors.Is(r.End(), ErrNonMinimal) {
			t.Errorf("%s: err %v, want ErrNonMinimal", c.name, r.End())
		}
	}
	// The minimal forms of the same values still decode.
	for _, v := range []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64} {
		r := Reader{B: binary.AppendUvarint(nil, v)}
		if got := r.Uvarint(); got != v || r.End() != nil {
			t.Errorf("uvarint %d decoded as %d, %v", v, got, r.End())
		}
	}
	for _, v := range []int64{0, -1, 63, -64, 64, math.MinInt64, math.MaxInt64} {
		r := Reader{B: binary.AppendVarint(nil, v)}
		if got := r.Varint(); got != v || r.End() != nil {
			t.Errorf("varint %d decoded as %d, %v", v, got, r.End())
		}
	}
}

// FuzzWireReader decodes arbitrary bytes as a record. Decoding must never
// panic, and whatever decodes cleanly must re-encode to exactly the bytes
// it came from: the encoding is canonical both ways.
func FuzzWireReader(f *testing.F) {
	for _, rc := range records {
		full := rc.append(nil)
		f.Add(full)
		f.Add(full[:len(full)/2])
		f.Add(append(full, 0))
	}
	f.Add(binary.AppendUvarint(nil, math.MaxUint64))
	f.Add([]byte{0, 0, 2})
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		rc, err := readRecord(b)
		if err != nil {
			return
		}
		if again := rc.append(nil); string(again) != string(b) {
			t.Fatalf("%x decoded as %+v, which re-encodes as %x", b, rc, again)
		}
	})
}
