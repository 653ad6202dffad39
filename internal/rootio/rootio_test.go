package rootio

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"hepvine/internal/randx"
)

// memFile adapts a byte slice to io.ReaderAt.
type memFile struct{ data []byte }

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, os.ErrInvalid
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, os.ErrInvalid
	}
	return n, nil
}

// encodeMem writes a complete file image from columns.
func encodeMem(t testing.TB, defs []BranchDef, basketSize, nEvents int, cols map[string][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, defs, basketSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteColumns(nEvents, cols); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeMem(t *testing.T, defs []BranchDef, basketSize, nEvents int, cols map[string][]float64) *Reader {
	t.Helper()
	data := encodeMem(t, defs, basketSize, nEvents, cols)
	rd, err := NewReader(&memFile{data}, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

func flatDefs() []BranchDef {
	return []BranchDef{{Name: "a", Kind: KindFlat}, {Name: "b", Kind: KindFlat}}
}

func TestFlatRoundTrip(t *testing.T) {
	n := 100
	cols := map[string][]float64{"a": make([]float64, n), "b": make([]float64, n)}
	for i := 0; i < n; i++ {
		cols["a"][i] = float64(i)
		cols["b"][i] = float64(i) * 0.5
	}
	rd := writeMem(t, flatDefs(), 16, n, cols)
	if rd.NEvents() != int64(n) {
		t.Fatalf("NEvents = %d", rd.NEvents())
	}
	got, err := rd.ReadFlat("a", 0, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("a[%d] = %v", i, v)
		}
	}
}

func TestFlatRangeReads(t *testing.T) {
	n := 100
	cols := map[string][]float64{"a": make([]float64, n), "b": make([]float64, n)}
	for i := 0; i < n; i++ {
		cols["a"][i] = float64(i)
	}
	rd := writeMem(t, flatDefs(), 7, n, cols) // deliberately odd basket size
	for _, rng := range [][2]int64{{0, 7}, {3, 10}, {7, 14}, {13, 99}, {95, 100}, {50, 50}} {
		got, err := rd.ReadFlat("a", rng[0], rng[1])
		if err != nil {
			t.Fatalf("range %v: %v", rng, err)
		}
		if int64(len(got)) != rng[1]-rng[0] {
			t.Fatalf("range %v: got %d values", rng, len(got))
		}
		for i, v := range got {
			if v != float64(rng[0]+int64(i)) {
				t.Fatalf("range %v: [%d] = %v", rng, i, v)
			}
		}
	}
}

func TestRangeValidation(t *testing.T) {
	cols := map[string][]float64{"a": {1, 2, 3}, "b": {1, 2, 3}}
	rd := writeMem(t, flatDefs(), 10, 3, cols)
	for _, rng := range [][2]int64{{-1, 2}, {0, 4}, {2, 1}} {
		if _, err := rd.ReadFlat("a", rng[0], rng[1]); err == nil {
			t.Fatalf("range %v accepted", rng)
		}
	}
	if _, err := rd.ReadFlat("nope", 0, 1); err == nil {
		t.Fatal("missing branch accepted")
	}
}

func jaggedDefs() []BranchDef {
	return []BranchDef{
		{Name: "n", Kind: KindCounts},
		{Name: "v", Kind: KindJagged, Counts: "n"},
		{Name: "w", Kind: KindJagged, Counts: "n"},
	}
}

func TestJaggedRoundTrip(t *testing.T) {
	// Events with 0,1,2,3,... elements cycling.
	nEv := 50
	counts := make([]float64, nEv)
	var v, w []float64
	val := 0.0
	for i := range counts {
		c := i % 5
		counts[i] = float64(c)
		for j := 0; j < c; j++ {
			v = append(v, val)
			w = append(w, -val)
			val++
		}
	}
	cols := map[string][]float64{"n": counts, "v": v, "w": w}
	rd := writeMem(t, jaggedDefs(), 8, nEv, cols)

	full, err := rd.ReadJagged("v", 0, int64(nEv))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Counts) != nEv {
		t.Fatalf("counts len = %d", len(full.Counts))
	}
	if len(full.Values) != len(v) {
		t.Fatalf("values len = %d, want %d", len(full.Values), len(v))
	}
	for i := range v {
		if full.Values[i] != v[i] {
			t.Fatalf("v[%d] = %v want %v", i, full.Values[i], v[i])
		}
	}
}

func TestJaggedRangeReads(t *testing.T) {
	nEv := 40
	counts := make([]float64, nEv)
	var v []float64
	expected := make([][]float64, nEv)
	val := 0.0
	for i := range counts {
		c := (i*7)%4 + 1
		counts[i] = float64(c)
		for j := 0; j < c; j++ {
			v = append(v, val)
			expected[i] = append(expected[i], val)
			val++
		}
	}
	cols := map[string][]float64{"n": counts, "v": v, "w": v}
	rd := writeMem(t, jaggedDefs(), 6, nEv, cols)

	for _, rng := range [][2]int64{{0, 6}, {5, 13}, {6, 12}, {17, 40}, {39, 40}, {10, 10}} {
		got, err := rd.ReadJagged("v", rng[0], rng[1])
		if err != nil {
			t.Fatalf("range %v: %v", rng, err)
		}
		if int64(len(got.Counts)) != rng[1]-rng[0] {
			t.Fatalf("range %v: %d counts", rng, len(got.Counts))
		}
		vi := 0
		for e := rng[0]; e < rng[1]; e++ {
			want := expected[e]
			if got.Counts[e-rng[0]] != len(want) {
				t.Fatalf("range %v ev %d: count %d want %d", rng, e, got.Counts[e-rng[0]], len(want))
			}
			for _, wv := range want {
				if got.Values[vi] != wv {
					t.Fatalf("range %v ev %d: value %v want %v", rng, e, got.Values[vi], wv)
				}
				vi++
			}
		}
	}
}

func TestWriteEventAPI(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, jaggedDefs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		vals := make([]float64, i%3)
		for j := range vals {
			vals[j] = float64(i*10 + j)
		}
		ev := Event{Jagged: map[string][]float64{"v": vals, "w": vals}}
		if err := w.WriteEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&memFile{buf.Bytes()}, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	j, err := rd.ReadJagged("v", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if j.Counts[i] != i%3 {
			t.Fatalf("event %d count = %d", i, j.Counts[i])
		}
	}
}

func TestWriteEventValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, jaggedDefs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Jagged branches sharing a counts branch must agree on length.
	ev := Event{Jagged: map[string][]float64{"v": {1, 2}, "w": {1}}}
	if err := w.WriteEvent(ev); err == nil {
		t.Fatal("inconsistent jagged lengths accepted")
	}
	// Missing branch.
	if err := w.WriteEvent(Event{Jagged: map[string][]float64{"v": {1}}}); err == nil {
		t.Fatal("missing jagged branch accepted")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, nil, 10); err == nil {
		t.Fatal("empty branches accepted")
	}
	if _, err := NewWriter(&buf, flatDefs(), 0); err == nil {
		t.Fatal("zero basket accepted")
	}
	dup := []BranchDef{{Name: "a", Kind: KindFlat}, {Name: "a", Kind: KindFlat}}
	if _, err := NewWriter(&buf, dup, 10); err == nil {
		t.Fatal("duplicate branch accepted")
	}
	bad := []BranchDef{{Name: "v", Kind: KindJagged, Counts: "missing"}}
	if _, err := NewWriter(&buf, bad, 10); err == nil {
		t.Fatal("dangling counts reference accepted")
	}
	notCounts := []BranchDef{
		{Name: "c", Kind: KindFlat},
		{Name: "v", Kind: KindJagged, Counts: "c"},
	}
	if _, err := NewWriter(&buf, notCounts, 10); err == nil {
		t.Fatal("non-counts reference accepted")
	}
}

func TestReaderRejectsCorrupt(t *testing.T) {
	if _, err := NewReader(&memFile{[]byte("tiny")}, 4); err == nil {
		t.Fatal("tiny file accepted")
	}
	junk := make([]byte, 100)
	if _, err := NewReader(&memFile{junk}, 100); err == nil {
		t.Fatal("junk accepted")
	}
}

// Stored bytes are the encoded width, counted whole baskets at a time:
// additive across branches and shrinking with the event range.
func TestColumnBytesSelective(t *testing.T) {
	n := 1000
	defs := []BranchDef{
		{Name: "a", Kind: KindFlat, Enc: EncF64},
		{Name: "b", Kind: KindFlat, Enc: EncF32},
		{Name: "c", Kind: KindFlat, Enc: EncVarint},
	}
	cols := map[string][]float64{"a": make([]float64, n), "b": make([]float64, n), "c": make([]float64, n)}
	for i := 0; i < n; i++ {
		cols["a"][i] = float64(i) * 0.5
		cols["b"][i] = float64(i)
		cols["c"][i] = float64(i % 64) // one zigzag varint byte each
	}
	rd := writeMem(t, defs, 100, n, cols)
	colBytes := func(lo, hi int64, names ...string) int64 {
		t.Helper()
		b, err := rd.ColumnBytes(names, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	N := int64(n)
	for name, width := range map[string]int64{"a": 8, "b": 4, "c": 1} {
		if got := colBytes(0, N, name); got != width*N {
			t.Fatalf("%s: %d stored bytes, want %d", name, got, width*N)
		}
	}
	if got := colBytes(0, N, "a", "b", "c"); got != 13*N {
		t.Fatalf("column bytes not additive: %d vs %d", got, 13*N)
	}
	if got := colBytes(0, N/2, "a"); got != 8*N/2 {
		t.Fatalf("half range touches %d bytes, want %d", got, 8*N/2)
	}
	// [150,250) touches baskets [100,200) and [200,300) whole.
	if got := colBytes(150, 250, "b"); got != 4*200 {
		t.Fatalf("misaligned range touches %d bytes, want %d", got, 4*200)
	}
	if got := colBytes(7, 7, "a"); got != 0 {
		t.Fatalf("empty range touches %d bytes", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(seed int64, basket uint8, n uint8) bool {
		nEv := int(n)%64 + 1
		bs := int(basket)%16 + 1
		cols := map[string][]float64{"a": make([]float64, nEv), "b": make([]float64, nEv)}
		for i := 0; i < nEv; i++ {
			cols["a"][i] = math.Sin(float64(seed) + float64(i))
			cols["b"][i] = float64(i)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, flatDefs(), bs)
		if err != nil {
			return false
		}
		if err := w.WriteColumns(nEv, cols); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := NewReader(&memFile{buf.Bytes()}, int64(buf.Len()))
		if err != nil {
			return false
		}
		got, err := rd.ReadFlat("a", 0, int64(nEv))
		if err != nil {
			return false
		}
		for i := range got {
			if got[i] != cols["a"][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGenColumnsDeterministic(t *testing.T) {
	a := GenColumns(200, GenOptions{Seed: 7})
	b := GenColumns(200, GenOptions{Seed: 7})
	for name, va := range a {
		vb := b[name]
		if len(va) != len(vb) {
			t.Fatalf("branch %s lengths differ", name)
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("branch %s differs at %d", name, i)
			}
		}
	}
	c := GenColumns(200, GenOptions{Seed: 8})
	if len(c["Jet_pt"]) == len(a["Jet_pt"]) {
		// Not impossible, but combined with identical MET it would be suspicious.
		same := true
		for i := range c["MET_pt"] {
			if c["MET_pt"][i] != a["MET_pt"][i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical data")
		}
	}
}

func TestGenColumnsShape(t *testing.T) {
	n := 2000
	cols := GenColumns(n, GenOptions{Seed: 1})
	if len(cols["MET_pt"]) != n {
		t.Fatalf("MET_pt has %d values", len(cols["MET_pt"]))
	}
	var totJets int
	for _, c := range cols["nJet"] {
		totJets += int(c)
	}
	if len(cols["Jet_pt"]) != totJets {
		t.Fatalf("Jet_pt %d values, counts say %d", len(cols["Jet_pt"]), totJets)
	}
	for _, pt := range cols["Photon_pt"] {
		if pt < 10 || pt > 1500 {
			t.Fatalf("photon pt out of range: %v", pt)
		}
	}
	for _, b := range cols["Jet_btagDeepB"] {
		if b < 0 || b > 1 {
			t.Fatalf("btag out of [0,1]: %v", b)
		}
	}
}

func TestSignalInjection(t *testing.T) {
	n := 3000
	bg := GenColumns(n, GenOptions{Seed: 5, SignalFrac: 0})
	sig := GenColumns(n, GenOptions{Seed: 5, SignalFrac: 0.5})
	count3 := func(cols map[string][]float64) int {
		c := 0
		for _, v := range cols["nPhoton"] {
			if v >= 3 {
				c++
			}
		}
		return c
	}
	if count3(sig) <= count3(bg)*2 {
		t.Fatalf("signal injection ineffective: bg=%d sig=%d", count3(bg), count3(sig))
	}
}

func TestWriteDatasetOnDisk(t *testing.T) {
	dir := t.TempDir()
	spec := DatasetSpec{Name: "test", Files: 3, EventsPerFile: 500, BasketSize: 100, Gen: GenOptions{Seed: 3}}
	paths, err := WriteDataset(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("%d paths", len(paths))
	}
	for _, p := range paths {
		rd, closer, err := Open(p)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		if rd.NEvents() != 500 {
			t.Fatalf("%s has %d events", p, rd.NEvents())
		}
		met, err := rd.ReadFlat("MET_pt", 100, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(met) != 100 {
			t.Fatalf("read %d MET values", len(met))
		}
		jets, err := rd.ReadJagged("Jet_pt", 0, 50)
		if err != nil {
			t.Fatal(err)
		}
		if len(jets.Counts) != 50 {
			t.Fatalf("jagged read: %d counts", len(jets.Counts))
		}
		closer.Close()
	}
	// Files differ from each other.
	d0, _ := os.ReadFile(paths[0])
	d1, _ := os.ReadFile(paths[1])
	if bytes.Equal(d0, d1) {
		t.Fatal("dataset files identical")
	}
	if filepath.Dir(paths[0]) != dir {
		t.Fatalf("file written outside dir: %s", paths[0])
	}
}

func TestWriteDatasetValidation(t *testing.T) {
	if _, err := WriteDataset(t.TempDir(), DatasetSpec{Name: "x"}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestBranchIntrospection(t *testing.T) {
	cols := map[string][]float64{"a": {1}, "b": {2}}
	rd := writeMem(t, flatDefs(), 10, 1, cols)
	if defs := rd.Branches(); len(defs) != 2 || defs[0] != flatDefs()[0] || defs[1] != flatDefs()[1] {
		t.Fatalf("Branches = %v", defs)
	}
	if rd.BasketSize() != 10 {
		t.Fatalf("BasketSize = %d", rd.BasketSize())
	}
}

func TestKindString(t *testing.T) {
	if KindFlat.String() != "flat" || KindCounts.String() != "counts" || KindJagged.String() != "jagged" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

// Robustness: NewReader must reject arbitrary garbage with an error, never
// panic, whatever the bytes claim about footer lengths.
func TestNewReaderNeverPanics(t *testing.T) {
	check := func(seed uint16, n uint8) bool {
		rng := randx.New(uint64(seed) + 1)
		size := int(n) + 16
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		// Sometimes make the magic valid so parsing goes deeper.
		if rng.Bool(0.5) {
			copy(buf, headerMagic[:])
			copy(buf[size-4:], trailerMagic[:])
		}
		defer func() {
			if recover() != nil {
				t.Errorf("NewReader panicked on %d bytes", size)
			}
		}()
		rd, err := NewReader(&memFile{buf}, int64(size))
		if err == nil && rd != nil {
			// Accidentally valid is astronomically unlikely but not wrong.
			_ = rd.NEvents()
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
