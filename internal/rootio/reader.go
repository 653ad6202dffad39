package rootio

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Reader provides column-selective, range-selective access to a VRT1 file,
// the access pattern the paper's analyses use against ROOT via uproot and
// XRootD: read only the branches a processor touches, only for the event
// range of one chunk. A Reader is safe for concurrent use: each read keeps
// its scratch buffers to itself.
type Reader struct {
	r      io.ReaderAt
	footer *footer
	byName map[string]int
}

// NewReader opens a file image of the given total size. It checks the whole
// index against the file before returning, so a corrupt or hostile footer is
// an error here rather than a bad allocation later.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < headerLen+8 {
		return nil, fmt.Errorf("rootio: file too small (%d bytes)", size)
	}
	var head [4]byte
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if head != headerMagic {
		return nil, fmt.Errorf("rootio: bad header magic %q", head)
	}
	var tail [8]byte
	if _, err := r.ReadAt(tail[:], size-8); err != nil {
		return nil, err
	}
	if [4]byte(tail[4:8]) != trailerMagic {
		return nil, fmt.Errorf("rootio: bad trailer magic")
	}
	ftLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	bodyEnd := size - 8 - ftLen
	if ftLen <= 0 || bodyEnd < headerLen {
		return nil, fmt.Errorf("rootio: implausible footer length %d", ftLen)
	}
	ftBuf := make([]byte, ftLen)
	if _, err := r.ReadAt(ftBuf, bodyEnd); err != nil {
		return nil, err
	}
	ft, err := decodeFooter(ftBuf)
	if err != nil {
		return nil, err
	}
	if err := ft.validate(bodyEnd); err != nil {
		return nil, err
	}
	rd := &Reader{r: r, footer: ft, byName: make(map[string]int, len(ft.Branches))}
	for i, br := range ft.Branches {
		rd.byName[br.Def.Name] = i
	}
	return rd, nil
}

// Open opens a file on disk. Close the returned closer when done.
func Open(path string) (*Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	rd, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return rd, f, nil
}

// NEvents reports the number of events in the file.
func (rd *Reader) NEvents() int64 { return rd.footer.NEvents }

// BasketSize reports events per basket.
func (rd *Reader) BasketSize() int64 { return rd.footer.BasketSize }

// Branches lists branch definitions in file order.
func (rd *Reader) Branches() []BranchDef {
	defs := make([]BranchDef, len(rd.footer.Branches))
	for i, br := range rd.footer.Branches {
		defs[i] = br.Def
	}
	return defs
}

// basketRange reports which baskets cover events [lo, hi).
func (rd *Reader) basketRange(lo, hi int64) (first, last int) {
	bs := rd.footer.BasketSize
	return int(lo / bs), int((hi - 1) / bs)
}

// basketBuf returns a scratch buffer that holds any of baskets first..last
// of the given branches, so one call reads all of them through it.
func (rd *Reader) basketBuf(first, last int, branches ...int) []byte {
	var n int64
	for _, bri := range branches {
		for _, bk := range rd.footer.Branches[bri].Baskets[first : last+1] {
			n = max(n, bk.Len)
		}
	}
	return make([]byte, n)
}

// readBasket reads basket bi of branch bri with one ReadAt into buf and
// appends its values [skip, skip+n) to dst.
func (rd *Reader) readBasket(dst []float64, buf []byte, bri, bi int, skip, n int64) ([]float64, error) {
	br := &rd.footer.Branches[bri]
	bk := br.Baskets[bi]
	buf = buf[:bk.Len]
	if _, err := rd.r.ReadAt(buf, bk.Offset); err != nil {
		return nil, fmt.Errorf("rootio: reading basket: %w", err)
	}
	return decodeColumnInto(dst, br.Def.Enc, buf, bk.NValues, skip, n)
}

// readFlatInto appends the values of flat or counts branch bri for events
// [lo, hi) to dst.
func (rd *Reader) readFlatInto(dst []float64, buf []byte, bri int, lo, hi int64) ([]float64, error) {
	bs := rd.footer.BasketSize
	first, last := rd.basketRange(lo, hi)
	var err error
	for bi := first; bi <= last; bi++ {
		bLo := int64(bi) * bs
		s, e := max(lo, bLo), min(hi, bLo+bs)
		if dst, err = rd.readBasket(dst, buf, bri, bi, s-bLo, e-s); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// ReadFlat reads values of a flat or counts branch for events [lo, hi).
func (rd *Reader) ReadFlat(name string, lo, hi int64) ([]float64, error) {
	bri, ok := rd.byName[name]
	if !ok {
		return nil, fmt.Errorf("rootio: no branch %q", name)
	}
	if rd.footer.Branches[bri].Def.Kind == KindJagged {
		return nil, fmt.Errorf("rootio: branch %q is jagged; use ReadJagged", name)
	}
	if err := rd.checkRange(lo, hi); err != nil {
		return nil, err
	}
	if lo == hi {
		return nil, nil
	}
	first, last := rd.basketRange(lo, hi)
	return rd.readFlatInto(make([]float64, 0, hi-lo), rd.basketBuf(first, last, bri), bri, lo, hi)
}

// Jagged holds a jagged column slice: Counts[i] elements of event i live in
// Values, flattened in event order.
type Jagged struct {
	Counts []int
	Values []float64
}

// ReadJagged reads a jagged branch (with its counts) for events [lo, hi).
// Each counts basket is read once: its counts both fill Counts and locate
// the range's values within the matching value basket.
func (rd *Reader) ReadJagged(name string, lo, hi int64) (Jagged, error) {
	bri, ok := rd.byName[name]
	if !ok {
		return Jagged{}, fmt.Errorf("rootio: no branch %q", name)
	}
	def := rd.footer.Branches[bri].Def
	if def.Kind != KindJagged {
		return Jagged{}, fmt.Errorf("rootio: branch %q is not jagged", name)
	}
	if err := rd.checkRange(lo, hi); err != nil {
		return Jagged{}, err
	}
	if lo == hi {
		return Jagged{}, nil
	}
	bs := rd.footer.BasketSize
	first, last := rd.basketRange(lo, hi)
	cbri := rd.byName[def.Counts]
	buf := rd.basketBuf(first, last, bri, cbri)
	// Counts from the first basket's start: the events before lo locate
	// lo's first value within that basket.
	fLo := int64(first) * bs
	cf, err := rd.readFlatInto(make([]float64, 0, hi-fLo), buf, cbri, fLo, hi)
	if err != nil {
		return Jagged{}, err
	}
	out := Jagged{Counts: make([]int, hi-lo)}
	var skip, total int64
	for bi := first; bi <= last; bi++ {
		bLo := int64(bi) * bs
		room := rd.footer.Branches[bri].Baskets[bi].NValues
		for ev := bLo; ev < min(hi, bLo+bs); ev++ {
			c := cf[ev-fLo]
			if !(c >= 0 && c <= float64(room)) {
				return Jagged{}, fmt.Errorf("rootio: jagged basket %d of %q shorter than counts imply", bi, name)
			}
			room -= int64(c)
			if ev < lo {
				skip += int64(c)
			} else {
				out.Counts[ev-lo] = int(c)
				total += int64(c)
			}
		}
	}
	out.Values = make([]float64, 0, total)
	for bi := first; bi <= last; bi++ {
		bLo := int64(bi) * bs
		var n int64
		for _, c := range out.Counts[max(lo, bLo)-lo : min(hi, bLo+bs)-lo] {
			n += int64(c)
		}
		if out.Values, err = rd.readBasket(out.Values, buf, bri, bi, skip, n); err != nil {
			return Jagged{}, err
		}
		skip = 0
	}
	return out, nil
}

func (rd *Reader) checkRange(lo, hi int64) error {
	if lo < 0 || hi < lo || hi > rd.footer.NEvents {
		return fmt.Errorf("rootio: event range [%d,%d) out of bounds (file has %d events)", lo, hi, rd.footer.NEvents)
	}
	return nil
}

// ColumnBytes reports the stored bytes that reading the named branches over
// events [lo, hi) touches, whole baskets included; the simulation plane uses
// this to charge realistic I/O volumes for column-selective reads.
func (rd *Reader) ColumnBytes(names []string, lo, hi int64) (int64, error) {
	if err := rd.checkRange(lo, hi); err != nil {
		return 0, err
	}
	if lo == hi {
		return 0, nil
	}
	first, last := rd.basketRange(lo, hi)
	var total int64
	for _, name := range names {
		bri, ok := rd.byName[name]
		if !ok {
			return 0, fmt.Errorf("rootio: no branch %q", name)
		}
		for _, bk := range rd.footer.Branches[bri].Baskets[first : last+1] {
			total += bk.Len
		}
	}
	return total, nil
}
