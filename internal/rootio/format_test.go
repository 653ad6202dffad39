package rootio

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// mixedDefs covers every kind and encoding in one small schema.
func mixedDefs() []BranchDef {
	return []BranchDef{
		{Name: "a", Kind: KindFlat, Enc: EncF64},
		{Name: "n", Kind: KindCounts, Enc: EncVarint},
		{Name: "v", Kind: KindJagged, Counts: "n", Enc: EncF32},
		{Name: "t", Kind: KindJagged, Counts: "n", Enc: EncVarint},
	}
}

// mixedFile is a valid 10-event file in baskets of 4 (the last one short).
func mixedFile(t testing.TB) []byte {
	nEv := 10
	cols := map[string][]float64{"a": make([]float64, nEv), "n": make([]float64, nEv)}
	for i := 0; i < nEv; i++ {
		cols["a"][i] = float64(i) / 3
		cols["n"][i] = float64(i % 3)
		for j := 0; j < i%3; j++ {
			cols["v"] = append(cols["v"], float64(i)+float64(j)/8)
			cols["t"] = append(cols["t"], float64(j-i))
		}
	}
	return encodeMem(t, mixedDefs(), 4, nEv, cols)
}

// withFooter rebuilds a file image around a mutated copy of its index.
func withFooter(t *testing.T, data []byte, mutate func(*footer)) []byte {
	t.Helper()
	bodyEnd := len(data) - 8 - int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	ft, err := decodeFooter(data[bodyEnd : len(data)-8])
	if err != nil {
		t.Fatal(err)
	}
	mutate(ft)
	enc := ft.encode()
	out := append(bytes.Clone(data[:bodyEnd]), enc...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(enc)))
	return append(out, trailerMagic[:]...)
}

func TestReaderRejectsOtherVersions(t *testing.T) {
	data := mixedFile(t)
	for _, v := range []uint32{2, FormatVersion + 1} {
		bad := withFooter(t, data, func(f *footer) { f.Version = v })
		_, err := NewReader(&memFile{bad}, int64(len(bad)))
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: err = %v", v, err)
		}
	}
}

// NewReader checks every basket against the body and its encoding, and the
// basket count against the event count, before any read trusts them.
func TestReaderRejectsBadIndex(t *testing.T) {
	data := mixedFile(t)
	bodyEnd := int64(len(data)) - 8 - int64(binary.LittleEndian.Uint32(data[len(data)-8:]))
	for _, c := range []struct {
		name   string
		mutate func(*footer)
	}{
		{"offset inside header", func(f *footer) { f.Branches[0].Baskets[0].Offset = 4 }},
		{"basket past body", func(f *footer) { f.Branches[0].Baskets[1].Offset = bodyEnd - 8 }},
		{"negative offset", func(f *footer) { f.Branches[0].Baskets[0].Offset = -1 << 40 }},
		{"negative length", func(f *footer) { f.Branches[2].Baskets[0].Len = -4 }},
		{"huge length", func(f *footer) { f.Branches[0].Baskets[0].Len = 1 << 62 }},
		{"f64 length not 8 per value", func(f *footer) { f.Branches[0].Baskets[0].Len -= 8 }},
		{"f32 length not 4 per value", func(f *footer) { f.Branches[2].Baskets[0].NValues++ }},
		{"varint shorter than its values", func(f *footer) { f.Branches[1].Baskets[0].Len = 3 }},
		{"varint longer than its values", func(f *footer) {
			bk := &f.Branches[3].Baskets[0]
			bk.Len = 10*bk.NValues + 1
		}},
		{"negative values", func(f *footer) { f.Branches[3].Baskets[0].NValues = -1 }},
		{"flat values disagree with events", func(f *footer) { f.Branches[1].Baskets[2].NValues = 1 }},
		{"basket missing", func(f *footer) { f.Branches[0].Baskets = f.Branches[0].Baskets[:2] }},
		{"events beyond baskets", func(f *footer) { f.NEvents += 4 }},
		{"events short of baskets", func(f *footer) { f.NEvents = 4 }},
		{"negative events", func(f *footer) { f.NEvents = -1 }},
		{"jagged without counts", func(f *footer) { f.Branches[2].Def.Counts = "a" }},
		{"unknown kind", func(f *footer) { f.Branches[0].Def.Kind = 7 }},
	} {
		bad := withFooter(t, data, c.mutate)
		if _, err := NewReader(&memFile{bad}, int64(len(bad))); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The unmutated rebuild is still valid.
	same := withFooter(t, data, func(*footer) {})
	if _, err := NewReader(&memFile{same}, int64(len(same))); err != nil {
		t.Fatal(err)
	}
}

// Counts a jagged basket cannot hold are an error, not a bad slice.
func TestReadJaggedRejectsBadCounts(t *testing.T) {
	defs := []BranchDef{
		{Name: "n", Kind: KindCounts, Enc: EncF64},
		{Name: "v", Kind: KindJagged, Counts: "n", Enc: EncF64},
	}
	cols := map[string][]float64{"n": {1, 2, 1}, "v": {1, 2, 3, 4}}
	data := encodeMem(t, defs, 10, 3, cols)
	countsAt := int(headerLen) // the counts basket is written first
	for _, c := range []float64{-1, 9, 1e300} {
		bad := bytes.Clone(data)
		binary.LittleEndian.PutUint64(bad[countsAt+8:], math.Float64bits(c))
		rd, err := NewReader(&memFile{bad}, int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.ReadJagged("v", 0, 3); err == nil {
			t.Fatalf("count %v accepted", c)
		}
	}
}

// Every generator column, written under every encoding that can hold it and
// read back whole or over a range that cuts baskets, equals enc.quantize(v)
// bit for bit.
func TestGeneratorColumnsRoundTripExact(t *testing.T) {
	n := 3000
	cols := GenColumns(n, GenOptions{Seed: 11, SignalFrac: 0.1})
	integral := func(vals []float64) bool {
		for _, v := range vals {
			if v != float64(int64(v)) {
				return false
			}
		}
		return true
	}
	for _, enc := range []Encoding{EncF64, EncF32, EncVarint} {
		defs := NanoSchema()
		for i := range defs {
			if enc != EncVarint || integral(cols[defs[i].Name]) {
				defs[i].Enc = enc
			}
		}
		rd := writeMem(t, defs, 700, n, cols)
		for _, d := range defs {
			for _, rng := range [][2]int64{{0, int64(n)}, {333, 2222}} {
				lo, hi := rng[0], rng[1]
				var got []float64
				want := cols[d.Name][lo:hi]
				if d.Kind == KindJagged {
					j, err := rd.ReadJagged(d.Name, lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					var skip, total int
					for _, c := range cols[d.Counts][:lo] {
						skip += int(c)
					}
					for i, c := range j.Counts {
						if float64(c) != cols[d.Counts][lo+int64(i)] {
							t.Fatalf("%s/%v: count %d = %d", d.Name, enc, i, c)
						}
						total += c
					}
					got, want = j.Values, cols[d.Name][skip:skip+total]
				} else {
					var err error
					if got, err = rd.ReadFlat(d.Name, lo, hi); err != nil {
						t.Fatal(err)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s/%v [%d,%d): %d values, want %d", d.Name, d.Enc, lo, hi, len(got), len(want))
				}
				for i, v := range want {
					if math.Float64bits(got[i]) != math.Float64bits(d.Enc.quantize(v)) {
						t.Fatalf("%s/%v [%d,%d): [%d] = %v, want %v", d.Name, d.Enc, lo, hi, i, got[i], d.Enc.quantize(v))
					}
				}
			}
		}
	}
}

// Decoding is in place: a read makes a fixed handful of allocations (the
// basket buffer, the counts, the values, and for a jagged read the counts
// scratch), however many baskets the range spans.
func TestReadAllocsIndependentOfBaskets(t *testing.T) {
	n := 5000
	cols := GenColumns(n, GenOptions{Seed: 9})
	for _, basket := range []int{2500, 625} {
		rd := writeMem(t, NanoSchema(), basket, n, cols)
		jagged := testing.AllocsPerRun(20, func() {
			if _, err := rd.ReadJagged("Jet_pt", 0, int64(n)); err != nil {
				t.Fatal(err)
			}
		})
		flat := testing.AllocsPerRun(20, func() {
			if _, err := rd.ReadFlat("MET_pt", 0, int64(n)); err != nil {
				t.Fatal(err)
			}
		})
		if jagged > 4 || flat > 2 {
			t.Fatalf("%d baskets: ReadJagged %.0f allocs (want <= 4), ReadFlat %.0f (want <= 2)", n/basket, jagged, flat)
		}
	}
}

// One Reader serves many goroutines at once, as the xrootd server shares
// one per file: every read keeps its scratch buffers to itself.
func TestReaderConcurrentReads(t *testing.T) {
	n := 3000
	rd := writeMem(t, NanoSchema(), 500, n, GenColumns(n, GenOptions{Seed: 4}))
	wantJets, err := rd.ReadJagged("Jet_pt", 100, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	wantMET, err := rd.ReadFlat("MET_pt", 100, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				jets, err := rd.ReadJagged("Jet_pt", 100, int64(n))
				if err != nil || !slices.Equal(jets.Counts, wantJets.Counts) || !slices.Equal(jets.Values, wantJets.Values) {
					t.Errorf("concurrent ReadJagged differs (err %v)", err)
					return
				}
				met, err := rd.ReadFlat("MET_pt", 100, int64(n))
				if err != nil || !slices.Equal(met, wantMET) {
					t.Errorf("concurrent ReadFlat differs (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzReader: whatever the bytes, NewReader plus reads of every branch
// return an error or well-formed values, and never panic or allocate beyond
// what the input's size can justify.
func FuzzReader(f *testing.F) {
	f.Add(mixedFile(f))
	f.Add(encodeMem(f, NanoSchema(), 16, 40, GenColumns(40, GenOptions{Seed: 1})))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(&memFile{data}, int64(len(data)))
		if err != nil {
			return
		}
		defs := rd.Branches()
		n := rd.NEvents()
		if len(defs) > 0 && n > int64(len(data)) {
			t.Fatalf("%d events indexed in %d bytes", n, len(data))
		}
		for _, d := range defs {
			for _, rng := range [][2]int64{{0, n}, {n / 3, n - n/4}} {
				lo, hi := rng[0], rng[1]
				if d.Kind != KindJagged {
					vals, err := rd.ReadFlat(d.Name, lo, hi)
					if err == nil && int64(len(vals)) != hi-lo {
						t.Fatalf("%s [%d,%d): %d values", d.Name, lo, hi, len(vals))
					}
					continue
				}
				j, err := rd.ReadJagged(d.Name, lo, hi)
				if err != nil {
					continue
				}
				if int64(len(j.Counts)) != hi-lo {
					t.Fatalf("%s [%d,%d): %d counts", d.Name, lo, hi, len(j.Counts))
				}
				total := 0
				for _, c := range j.Counts {
					if c < 0 {
						t.Fatalf("%s: negative count %d", d.Name, c)
					}
					total += c
				}
				if total != len(j.Values) || total > len(data) {
					t.Fatalf("%s [%d,%d): counts sum %d, %d values, %d bytes", d.Name, lo, hi, total, len(j.Values), len(data))
				}
			}
		}
	})
}
