// Package rootio implements a columnar event-data file format standing in
// for the ROOT files consumed by the paper's applications, plus a synthetic
// CMS-like collision-event generator.
//
// The format ("VRT1") keeps the properties the paper's data path depends on:
//
//   - column-oriented storage: each branch (column) is stored in its own
//     baskets, so an analysis that touches three branches out of forty
//     reads only those bytes (the access pattern XRootD exploits);
//   - basket (row-group) granularity: chunked reads let Coffea-style
//     partitioning map N events → M tasks without touching whole files;
//   - jagged collections: per-event variable-length collections (photons,
//     jets) are stored NanoAOD-style as a counts branch plus flattened
//     value branches.
//
// Layout:
//
//	header : magic "VRT1" | version u32
//	body   : basket blocks, in arbitrary order
//	footer : branch table + basket index (binary), footer length u32,
//	         trailing magic "1TRV"
//
// All integers are little-endian. A basket holds its values exactly as the
// branch encoding lays them out (see Encoding), with no entropy stage on top,
// so a reader decodes the stored bytes straight into the caller's slice.
// Readers hand every value to the analysis layer as float64.
package rootio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Magic numbers framing a file.
var (
	headerMagic  = [4]byte{'V', 'R', 'T', '1'}
	trailerMagic = [4]byte{'1', 'T', 'R', 'V'}
)

// FormatVersion is the on-disk format version this package writes and the
// only one it reads. Version 2 added per-branch encodings; version 3 dropped
// the DEFLATE stage, so a basket's stored length is its encoded length.
const FormatVersion = 3

// Kind describes how a branch relates to events.
type Kind uint8

// Branch kinds.
const (
	// KindFlat branches have exactly one value per event (e.g. MET_pt).
	KindFlat Kind = iota
	// KindCounts branches carry the per-event length of a jagged
	// collection (e.g. nPhoton).
	KindCounts
	// KindJagged branches carry flattened values of a jagged collection;
	// their Counts field names the corresponding KindCounts branch.
	KindJagged
)

func (k Kind) String() string {
	switch k {
	case KindFlat:
		return "flat"
	case KindCounts:
		return "counts"
	case KindJagged:
		return "jagged"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// BranchDef declares a column at write time.
type BranchDef struct {
	Name   string
	Kind   Kind
	Counts string // for KindJagged: name of the counts branch
	// Enc selects the storage encoding (default EncF64). Varint branches
	// must hold integer values.
	Enc Encoding
}

// basketLoc locates one basket within the file body.
type basketLoc struct {
	Offset  int64
	Len     int64 // stored (= encoded) byte length
	NValues int64
}

// branchMeta is the footer record for one branch.
type branchMeta struct {
	Def     BranchDef
	Baskets []basketLoc
}

// footer is the decoded file index.
type footer struct {
	Version    uint32
	NEvents    int64
	BasketSize int64 // events per basket (last basket may be short)
	Branches   []branchMeta
}

func (f *footer) encode() []byte {
	var b bytes.Buffer
	putU32(&b, f.Version)
	putI64(&b, f.NEvents)
	putI64(&b, f.BasketSize)
	putU32(&b, uint32(len(f.Branches)))
	for _, br := range f.Branches {
		putString(&b, br.Def.Name)
		b.WriteByte(byte(br.Def.Kind))
		b.WriteByte(byte(br.Def.Enc))
		putString(&b, br.Def.Counts)
		putU32(&b, uint32(len(br.Baskets)))
		for _, bk := range br.Baskets {
			putI64(&b, bk.Offset)
			putI64(&b, bk.Len)
			putI64(&b, bk.NValues)
		}
	}
	return b.Bytes()
}

// Fixed byte sizes: the file header, one basket record in the footer, and
// the smallest possible branch record (empty strings, no baskets).
const (
	headerLen          = int64(len(headerMagic)) + 4
	basketRecordLen    = 3 * 8
	minBranchRecordLen = 4 + 1 + 1 + 4 + 4
)

func decodeFooter(data []byte) (*footer, error) {
	r := bytes.NewReader(data)
	f := &footer{}
	var err error
	if f.Version, err = getU32(r); err != nil {
		return nil, err
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("rootio: unsupported version %d", f.Version)
	}
	if f.NEvents, err = getI64(r); err != nil {
		return nil, err
	}
	if f.BasketSize, err = getI64(r); err != nil {
		return nil, err
	}
	if f.NEvents < 0 || f.BasketSize <= 0 {
		return nil, fmt.Errorf("rootio: invalid event count %d or basket size %d", f.NEvents, f.BasketSize)
	}
	nb, err := getU32(r)
	if err != nil {
		return nil, err
	}
	// Bound every count by the bytes left before allocating for it.
	if int64(nb) > int64(r.Len())/minBranchRecordLen {
		return nil, fmt.Errorf("rootio: implausible branch count %d", nb)
	}
	f.Branches = make([]branchMeta, nb)
	for i := range f.Branches {
		br := &f.Branches[i]
		if br.Def.Name, err = getString(r); err != nil {
			return nil, err
		}
		kb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		br.Def.Kind = Kind(kb)
		if br.Def.Kind > KindJagged {
			return nil, fmt.Errorf("rootio: branch %q has unknown kind %d", br.Def.Name, kb)
		}
		eb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		br.Def.Enc = Encoding(eb)
		if !br.Def.Enc.valid() {
			return nil, fmt.Errorf("rootio: branch %q has unknown encoding %d", br.Def.Name, eb)
		}
		if br.Def.Counts, err = getString(r); err != nil {
			return nil, err
		}
		nk, err := getU32(r)
		if err != nil {
			return nil, err
		}
		if int64(nk) > int64(r.Len())/basketRecordLen {
			return nil, fmt.Errorf("rootio: implausible basket count %d", nk)
		}
		br.Baskets = make([]basketLoc, nk)
		for j := range br.Baskets {
			bk := &br.Baskets[j]
			if bk.Offset, err = getI64(r); err != nil {
				return nil, err
			}
			if bk.Len, err = getI64(r); err != nil {
				return nil, err
			}
			if bk.NValues, err = getI64(r); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// validate checks the decoded index against itself and against the file
// body [headerLen, bodyEnd), so that no later read trusts an unchecked
// offset, length or count: every basket lies inside the body and is as long
// as its encoding makes nValues values, every branch has one basket per
// BasketSize events, every flat or counts basket holds one value per event,
// and every jagged branch names a counts branch.
func (f *footer) validate(bodyEnd int64) error {
	nBaskets := f.NEvents / f.BasketSize
	if f.NEvents%f.BasketSize != 0 {
		nBaskets++
	}
	kinds := make(map[string]Kind, len(f.Branches))
	for _, br := range f.Branches {
		kinds[br.Def.Name] = br.Def.Kind
	}
	for _, br := range f.Branches {
		d := br.Def
		if d.Kind == KindJagged && kinds[d.Counts] != KindCounts {
			return fmt.Errorf("rootio: jagged branch %q has no counts branch %q", d.Name, d.Counts)
		}
		if int64(len(br.Baskets)) != nBaskets {
			return fmt.Errorf("rootio: branch %q has %d baskets for %d events, want %d", d.Name, len(br.Baskets), f.NEvents, nBaskets)
		}
		for bi, bk := range br.Baskets {
			if bk.Offset < headerLen || bk.Len < 0 || bk.Offset > bodyEnd || bk.Len > bodyEnd-bk.Offset {
				return fmt.Errorf("rootio: basket %d of %q at [%d,+%d) lies outside the body [%d,%d)", bi, d.Name, bk.Offset, bk.Len, headerLen, bodyEnd)
			}
			if !d.Enc.storedLenOK(bk.Len, bk.NValues) {
				return fmt.Errorf("rootio: basket %d of %q is %d bytes, which cannot hold %d %v values", bi, d.Name, bk.Len, bk.NValues, d.Enc)
			}
			if d.Kind != KindJagged {
				if want := min(f.BasketSize, f.NEvents-int64(bi)*f.BasketSize); bk.NValues != want {
					return fmt.Errorf("rootio: basket %d of %q holds %d values for %d events", bi, d.Name, bk.NValues, want)
				}
			}
		}
	}
	return nil
}

func putU32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func putI64(b *bytes.Buffer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	b.Write(buf[:])
}

func putString(b *bytes.Buffer, s string) {
	putU32(b, uint32(len(s)))
	b.WriteString(s)
}

func getU32(r *bytes.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("rootio: truncated footer: %w", err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func getI64(r *bytes.Reader) (int64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("rootio: truncated footer: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

func getString(r *bytes.Reader) (string, error) {
	n, err := getU32(r)
	if err != nil {
		return "", err
	}
	if int64(n) > int64(r.Len()) {
		return "", fmt.Errorf("rootio: truncated footer string of %d bytes", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("rootio: truncated footer string: %w", err)
	}
	return string(buf), nil
}
