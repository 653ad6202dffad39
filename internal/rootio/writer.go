package rootio

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Writer streams events into a VRT1 file. Events are buffered in memory and
// flushed to per-branch baskets every BasketSize events.
type Writer struct {
	w          io.Writer
	offset     int64
	basketSize int64
	defs       []BranchDef
	byName     map[string]int
	meta       []branchMeta

	nEvents int64
	// buffered values since the last flush; jagged branches buffer their
	// flattened values, counts branches one value per event.
	buf       [][]float64
	bufEvents int64
	closed    bool
}

// NewWriter starts a file with the given branches and events-per-basket.
func NewWriter(w io.Writer, defs []BranchDef, basketSize int) (*Writer, error) {
	if basketSize <= 0 {
		return nil, fmt.Errorf("rootio: basket size must be positive, got %d", basketSize)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("rootio: need at least one branch")
	}
	byName := make(map[string]int, len(defs))
	for i, d := range defs {
		if d.Name == "" {
			return nil, fmt.Errorf("rootio: branch %d has empty name", i)
		}
		if !d.Enc.valid() {
			return nil, fmt.Errorf("rootio: branch %q has unknown encoding %d", d.Name, d.Enc)
		}
		if _, dup := byName[d.Name]; dup {
			return nil, fmt.Errorf("rootio: duplicate branch %q", d.Name)
		}
		byName[d.Name] = i
	}
	for _, d := range defs {
		if d.Kind == KindJagged {
			ci, ok := byName[d.Counts]
			if !ok {
				return nil, fmt.Errorf("rootio: jagged branch %q references missing counts branch %q", d.Name, d.Counts)
			}
			if defs[ci].Kind != KindCounts {
				return nil, fmt.Errorf("rootio: branch %q referenced as counts by %q has kind %v", d.Counts, d.Name, defs[ci].Kind)
			}
		}
	}
	wr := &Writer{
		w:          w,
		basketSize: int64(basketSize),
		defs:       defs,
		byName:     byName,
		meta:       make([]branchMeta, len(defs)),
		buf:        make([][]float64, len(defs)),
	}
	for i, d := range defs {
		wr.meta[i].Def = d
	}
	n, err := w.Write(binary.LittleEndian.AppendUint32(headerMagic[:], FormatVersion))
	if err != nil {
		return nil, err
	}
	wr.offset = int64(n)
	return wr, nil
}

// Event supplies one event's values: flat branches map to a single value,
// counts branches are implied by the jagged slices, and jagged branches map
// to their per-event slice.
type Event struct {
	Flat   map[string]float64
	Jagged map[string][]float64
}

// WriteEvent appends one event. Every flat branch must be present in Flat;
// every jagged branch in Jagged (possibly empty); counts branches are
// derived automatically from their jagged members and must not be supplied.
func (wr *Writer) WriteEvent(ev Event) error {
	if wr.closed {
		return fmt.Errorf("rootio: write after Close")
	}
	// Derive counts per counts-branch, validating consistency across the
	// jagged branches that share one.
	counts := make(map[string]int)
	for i, d := range wr.defs {
		switch d.Kind {
		case KindFlat:
			v, ok := ev.Flat[d.Name]
			if !ok {
				return fmt.Errorf("rootio: event missing flat branch %q", d.Name)
			}
			wr.buf[i] = append(wr.buf[i], v)
		case KindJagged:
			vals, ok := ev.Jagged[d.Name]
			if !ok {
				return fmt.Errorf("rootio: event missing jagged branch %q", d.Name)
			}
			if prev, seen := counts[d.Counts]; seen && prev != len(vals) {
				return fmt.Errorf("rootio: jagged branches of %q disagree on length: %d vs %d", d.Counts, prev, len(vals))
			}
			counts[d.Counts] = len(vals)
			wr.buf[i] = append(wr.buf[i], vals...)
		}
	}
	for i, d := range wr.defs {
		if d.Kind == KindCounts {
			n, ok := counts[d.Name]
			if !ok {
				return fmt.Errorf("rootio: counts branch %q has no jagged members in event", d.Name)
			}
			wr.buf[i] = append(wr.buf[i], float64(n))
		}
	}
	wr.nEvents++
	wr.bufEvents++
	if wr.bufEvents >= wr.basketSize {
		return wr.flush()
	}
	return nil
}

// WriteColumns appends a block of events given directly as columns, the
// bulk path used by the dataset generator. cols must contain every flat and
// counts branch with nEvents values each, and every jagged branch with
// sum(counts) values.
func (wr *Writer) WriteColumns(nEvents int, cols map[string][]float64) error {
	if wr.closed {
		return fmt.Errorf("rootio: write after Close")
	}
	for i, d := range wr.defs {
		vals, ok := cols[d.Name]
		if !ok {
			return fmt.Errorf("rootio: columns missing branch %q", d.Name)
		}
		switch d.Kind {
		case KindFlat, KindCounts:
			if len(vals) != nEvents {
				return fmt.Errorf("rootio: branch %q has %d values, want %d", d.Name, len(vals), nEvents)
			}
		case KindJagged:
			want := 0
			cvals := cols[d.Counts]
			if len(cvals) != nEvents {
				return fmt.Errorf("rootio: counts branch %q has %d values, want %d", d.Counts, len(cvals), nEvents)
			}
			for _, c := range cvals {
				want += int(c)
			}
			if len(vals) != want {
				return fmt.Errorf("rootio: jagged branch %q has %d values, counts say %d", d.Name, len(vals), want)
			}
		}
		wr.buf[i] = append(wr.buf[i], vals...)
	}
	wr.nEvents += int64(nEvents)
	wr.bufEvents += int64(nEvents)
	for wr.bufEvents >= wr.basketSize {
		if err := wr.flushPartial(wr.basketSize); err != nil {
			return err
		}
	}
	return nil
}

// flush writes all buffered events as one basket per branch.
func (wr *Writer) flush() error {
	return wr.flushPartial(wr.bufEvents)
}

// flushPartial writes the first nEv buffered events as a basket per branch.
func (wr *Writer) flushPartial(nEv int64) error {
	if nEv == 0 {
		return nil
	}
	if nEv > wr.bufEvents {
		nEv = wr.bufEvents
	}
	// Compute every branch's take before trimming any buffer: a jagged
	// branch derives its take from the counts branch buffer, which may
	// appear earlier in wr.defs.
	takes := make([]int64, len(wr.defs))
	for i, d := range wr.defs {
		switch d.Kind {
		case KindFlat, KindCounts:
			takes[i] = nEv
		case KindJagged:
			ci := wr.byName[d.Counts]
			var sum int64
			for _, c := range wr.buf[ci][:nEv] {
				sum += int64(c)
			}
			takes[i] = sum
		}
	}
	for i := range wr.defs {
		take := takes[i]
		vals := wr.buf[i][:take]
		if err := wr.writeBasket(i, vals); err != nil {
			return err
		}
		wr.buf[i] = append(wr.buf[i][:0:0], wr.buf[i][take:]...)
	}
	wr.bufEvents -= nEv
	return nil
}

// writeBasket stores vals as one basket of the branch: the encoded bytes,
// exactly as a reader decodes them.
func (wr *Writer) writeBasket(branch int, vals []float64) error {
	data, err := encodeColumn(wr.defs[branch].Enc, vals)
	if err != nil {
		return fmt.Errorf("rootio: branch %q: %w", wr.defs[branch].Name, err)
	}
	n, err := wr.w.Write(data)
	if err != nil {
		return err
	}
	loc := basketLoc{Offset: wr.offset, Len: int64(n), NValues: int64(len(vals))}
	wr.offset += int64(n)
	wr.meta[branch].Baskets = append(wr.meta[branch].Baskets, loc)
	return nil
}

// Close flushes remaining events and writes the footer. The Writer must not
// be used afterwards.
func (wr *Writer) Close() error {
	if wr.closed {
		return nil
	}
	if err := wr.flush(); err != nil {
		return err
	}
	wr.closed = true
	ft := footer{
		Version:    FormatVersion,
		NEvents:    wr.nEvents,
		BasketSize: wr.basketSize,
		Branches:   wr.meta,
	}
	enc := ft.encode()
	enc = binary.LittleEndian.AppendUint32(enc, uint32(len(enc)))
	_, err := wr.w.Write(append(enc, trailerMagic[:]...))
	return err
}

// WriteFile writes a complete file at path from columns, convenience for the
// generator and tests.
func WriteFile(path string, defs []BranchDef, basketSize, nEvents int, cols map[string][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := NewWriter(f, defs, basketSize)
	if err != nil {
		f.Close()
		return err
	}
	if err := w.WriteColumns(nEvents, cols); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
