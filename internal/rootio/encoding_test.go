package rootio

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"hepvine/internal/randx"
)

func TestEncodingRoundTrips(t *testing.T) {
	vals := []float64{0, 1, -1, 3.5, 1e6, -42, 356123, 0.25}
	for _, enc := range []Encoding{EncF64, EncF32} {
		raw, err := encodeColumn(enc, vals)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		got, err := decodeColumnInto(nil, enc, raw, int64(len(vals)), 0, int64(len(vals)))
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		for i, v := range vals {
			if got[i] != enc.quantize(v) {
				t.Fatalf("%v[%d]: %v != %v", enc, i, got[i], enc.quantize(v))
			}
		}
	}
	ints := []float64{0, 1, -1, 127, -128, 1 << 40, 356000}
	raw, err := encodeColumn(EncVarint, ints)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeColumnInto(nil, EncVarint, raw, int64(len(ints)), 0, int64(len(ints)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if got[i] != ints[i] {
			t.Fatalf("varint[%d]: %v != %v", i, got[i], ints[i])
		}
	}
}

func TestVarintRejectsNonInteger(t *testing.T) {
	if _, err := encodeColumn(EncVarint, []float64{1.5}); err == nil {
		t.Fatal("non-integer varint accepted")
	}
}

func TestEncodingSizes(t *testing.T) {
	rng := randx.New(1)
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(rng.Intn(64)) // small integers
	}
	f64, _ := encodeColumn(EncF64, vals)
	f32, _ := encodeColumn(EncF32, vals)
	vi, _ := encodeColumn(EncVarint, vals)
	if len(f32) != len(f64)/2 {
		t.Fatalf("f32 %d vs f64 %d", len(f32), len(f64))
	}
	if len(vi) >= len(f32)/2 {
		t.Fatalf("varint %d not compact vs f32 %d", len(vi), len(f32))
	}
}

func TestEncodedFileSmaller(t *testing.T) {
	// The NanoAOD-style schema (f32 kinematics + varint counters) must
	// produce meaningfully smaller files than an all-f64 schema.
	n := 4000
	cols := GenColumns(n, GenOptions{Seed: 3})
	sizeWith := func(defs []BranchDef) int {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, defs, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteColumns(n, cols); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	all64 := NanoSchema()
	for i := range all64 {
		all64[i].Enc = EncF64
	}
	s64 := sizeWith(all64)
	sEnc := sizeWith(NanoSchema())
	if float64(sEnc) > 0.7*float64(s64) {
		t.Fatalf("encoded file %d not much smaller than f64 file %d", sEnc, s64)
	}
}

func TestEncodedRoundTripThroughFile(t *testing.T) {
	n := 500
	cols := GenColumns(n, GenOptions{Seed: 5})
	var buf bytes.Buffer
	w, err := NewWriter(&buf, NanoSchema(), 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteColumns(n, cols); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&memFile{buf.Bytes()}, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// Varint branch: exact round trip.
	runs, err := rd.ReadFlat("run", 0, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range runs {
		if v != cols["run"][i] {
			t.Fatalf("run[%d]: %v != %v", i, v, cols["run"][i])
		}
	}
	// F32 branch: round trip within float32 precision.
	met, err := rd.ReadFlat("MET_pt", 0, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range met {
		if v != float64(float32(cols["MET_pt"][i])) {
			t.Fatalf("MET_pt[%d]: %v != f32(%v)", i, v, cols["MET_pt"][i])
		}
	}
	// Jagged f32 branch via the full path.
	jets, err := rd.ReadJagged("Jet_pt", 0, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range jets.Values {
		if v != float64(float32(cols["Jet_pt"][i])) {
			t.Fatalf("Jet_pt[%d] mismatch", i)
		}
	}
	// Introspection carries the encoding.
	if def := rd.Branches()[11]; def.Name != "nJet" || def.Enc != EncVarint {
		t.Fatalf("branch 11 = %+v, want nJet as varint", def)
	}
}

func TestEncodingRoundTripProperty(t *testing.T) {
	check := func(seed uint16, encSel uint8) bool {
		enc := Encoding(encSel % 3)
		rng := randx.New(uint64(seed) + 1)
		n := rng.Intn(200) + 1
		vals := make([]float64, n)
		for i := range vals {
			if enc == EncVarint {
				vals[i] = float64(rng.Intn(1<<20) - 1<<19)
			} else {
				vals[i] = rng.Range(-1e6, 1e6)
			}
		}
		raw, err := encodeColumn(enc, vals)
		if err != nil {
			return false
		}
		got, err := decodeColumnInto(nil, enc, raw, int64(n), 0, int64(n))
		if err != nil {
			return false
		}
		for i := range vals {
			want := enc.quantize(vals[i])
			if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeColumnRejectsCorrupt(t *testing.T) {
	if _, err := decodeColumnInto(nil, EncF32, []byte{1, 2, 3}, 1, 0, 1); err == nil {
		t.Fatal("short f32 accepted")
	}
	if _, err := decodeColumnInto(nil, EncVarint, []byte{0x80}, 1, 0, 1); err == nil {
		t.Fatal("truncated varint accepted")
	}
	if _, err := decodeColumnInto(nil, Encoding(9), nil, 0, 0, 0); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	if _, err := decodeColumnInto(nil, EncF64, make([]byte, 16), 2, 1, 2); err == nil {
		t.Fatal("range past the basket accepted")
	}
}

// A sub-range decode appends exactly values [skip, skip+n) of the basket
// after whatever dst already holds, under every encoding.
func TestDecodeColumnIntoSubRange(t *testing.T) {
	vals := []float64{5, -3, 300, 0, 7, 1 << 20, -9}
	for _, enc := range []Encoding{EncF64, EncF32, EncVarint} {
		raw, err := encodeColumn(enc, vals)
		if err != nil {
			t.Fatal(err)
		}
		nv := int64(len(vals))
		for skip := int64(0); skip <= nv; skip++ {
			for n := int64(0); skip+n <= nv; n++ {
				got, err := decodeColumnInto([]float64{42}, enc, raw, nv, skip, n)
				if err != nil {
					t.Fatalf("%v [%d,+%d): %v", enc, skip, n, err)
				}
				if int64(len(got)) != 1+n || got[0] != 42 {
					t.Fatalf("%v [%d,+%d): got %v", enc, skip, n, got)
				}
				for i, v := range got[1:] {
					if v != vals[skip+int64(i)] {
						t.Fatalf("%v [%d,+%d): [%d] = %v", enc, skip, n, i, v)
					}
				}
			}
		}
	}
}

func TestStoredLenOK(t *testing.T) {
	for _, c := range []struct {
		enc    Encoding
		len, n int64
		wantOK bool
	}{
		{EncF64, 80, 10, true},
		{EncF64, 79, 10, false},
		{EncF64, 80, 11, false},
		{EncF32, 40, 10, true},
		{EncF32, 40, 20, false},
		{EncF32, 0, 0, true},
		{EncVarint, 10, 10, true},
		{EncVarint, 100, 10, true},
		{EncVarint, 101, 10, false},
		{EncVarint, 9, 10, false},
		{EncVarint, 0, 0, true},
		{EncVarint, 1, 0, false},
		{EncF64, 0, -1, false},
		{EncVarint, 10, -1, false},
	} {
		if got := c.enc.storedLenOK(c.len, c.n); got != c.wantOK {
			t.Errorf("%v: %d bytes for %d values: ok=%v, want %v", c.enc, c.len, c.n, got, c.wantOK)
		}
	}
}

func TestEncodingString(t *testing.T) {
	if EncF64.String() != "f64" || EncF32.String() != "f32" || EncVarint.String() != "varint" {
		t.Fatal("encoding strings wrong")
	}
	if Encoding(9).String() == "" {
		t.Fatal("unknown encoding should render")
	}
}
