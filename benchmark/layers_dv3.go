package main

import (
	"fmt"
	"path/filepath"
	"time"

	"hepvine/internal/apps"
	"hepvine/internal/coffea"
	"hepvine/internal/rootio"
	"hepvine/internal/xrootd"
)

// memReader serves one chunk's DV3 columns from memory, so timing
// DV3Processor.Process over it times the kernel and nothing else.
type memReader struct {
	n      int64
	flat   map[string][]float64
	jagged map[string]rootio.Jagged
}

func (m *memReader) NEvents() int64 { return m.n }

func (m *memReader) ReadFlat(name string, lo, hi int64) ([]float64, error) {
	v, ok := m.flat[name]
	if !ok {
		return nil, fmt.Errorf("memReader: no flat branch %q", name)
	}
	return v, nil
}

func (m *memReader) ReadJagged(name string, lo, hi int64) (rootio.Jagged, error) {
	v, ok := m.jagged[name]
	if !ok {
		return rootio.Jagged{}, fmt.Errorf("memReader: no jagged branch %q", name)
	}
	return v, nil
}

// readChunk reads exactly the DV3 branches of one chunk through rd, timing
// flat and jagged reads apart, and returns the columns for the kernel driver.
func readChunk(rd coffea.ColumnReader, c coffea.Chunk) (mem *memReader, flat, jagged time.Duration, err error) {
	mem = &memReader{n: c.NEvents(), flat: map[string][]float64{}, jagged: map[string]rootio.Jagged{}}
	for _, b := range dv3Flat {
		t0 := time.Now()
		v, err := rd.ReadFlat(b, c.Lo, c.Hi)
		flat += time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		mem.flat[b] = v
	}
	for _, b := range dv3Jagged {
		t0 := time.Now()
		v, err := rd.ReadJagged(b, c.Lo, c.Hi)
		jagged += time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		mem.jagged[b] = v
	}
	return mem, flat, jagged, nil
}

// layers isolates rootio, the DV3 kernel, hist and xrootd on the workload's
// own dataset, single-threaded, over the first chunks of it (enough for a
// steady rate, short enough to fit the run).
func (d *dv3) layers(e *env, out layerValues) error {
	chunks := d.chunks
	if len(chunks) > 16 {
		chunks = chunks[:16]
	}
	var (
		events, flatBytes, jaggedBytes int64
		flatT, jaggedT, kernelT        time.Duration
		partials                       []*coffea.HistSet
	)
	proc := apps.DV3Processor{}
	for _, c := range chunks {
		rd, closer, err := rootio.Open(c.Path)
		if err != nil {
			return err
		}
		mem, ft, jt, err := readChunk(rd, c)
		if err == nil {
			var fb, jb int64
			if fb, err = rd.ColumnBytes(dv3Flat, c.Lo, c.Hi); err == nil {
				// Every jagged read also reads the counts branch.
				jb, err = rd.ColumnBytes(append([]string{"nJet"}, dv3Jagged...), c.Lo, c.Hi)
			}
			flatBytes, jaggedBytes = flatBytes+fb, jaggedBytes+jb
		}
		closer.Close()
		if err != nil {
			return err
		}
		flatT, jaggedT = flatT+ft, jaggedT+jt
		events += c.NEvents()

		// The view starts at 0 of the in-memory columns.
		view := coffea.Chunk{Dataset: c.Dataset, Lo: 0, Hi: c.NEvents()}
		t0 := time.Now()
		hs, err := coffea.ProcessChunkFrom(proc, mem, view)
		kernelT += time.Since(t0)
		if err != nil {
			return err
		}
		partials = append(partials, hs)
	}
	n := float64(len(chunks))
	out.add("rootio.read_flat_mb_per_s", ratio(float64(flatBytes)/1e6, flatT.Seconds()))
	out.add("rootio.read_jagged_mb_per_s", ratio(float64(jaggedBytes)/1e6, jaggedT.Seconds()))
	out.add("rootio.read_ms_per_chunk", ratio(ms(int64(flatT+jaggedT)), n))
	out.add("rootio.bytes_per_event", ratio(float64(flatBytes+jaggedBytes), float64(events)))
	out.add("apps.kernel_events_per_s", ratio(float64(events), kernelT.Seconds()))
	out.add("apps.kernel_self_ms_per_chunk", ratio(ms(int64(kernelT)), n))
	out.add("apps.serial_s", d.serial.Seconds())

	// hist: merge and codec on the real partials.
	var mergeT, codecT time.Duration
	var blobBytes int
	acc := coffea.NewHistSet()
	for _, hs := range partials {
		t0 := time.Now()
		if err := acc.Add(hs); err != nil {
			return err
		}
		mergeT += time.Since(t0)
		t0 = time.Now()
		blob := hs.Marshal()
		back, err := coffea.UnmarshalHistSet(blob)
		codecT += time.Since(t0)
		if err != nil {
			return err
		}
		if !sameHists(hs, back) {
			return fmt.Errorf("hist codec round trip changed a partial")
		}
		blobBytes += len(blob)
	}
	out.add("hist.merge_us", ratio(float64(mergeT.Microseconds()), n))
	out.add("hist.codec_us", ratio(float64(codecT.Microseconds()), n))
	out.add("hist.partial_bytes", ratio(float64(blobBytes), n))

	out.add("coffea.build_graph_ms", d.buildMs)
	out.add("dag.tasks", float64(d.graph.Len()))
	out.add("dag.critical_path_len", float64(d.graph.CriticalPathLen()))

	// xrootd: the same reads through a zero-delay loopback server.
	srv, err := xrootd.NewServer(filepath.Dir(d.paths[0]), 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := xrootd.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	var xT time.Duration
	for _, c := range chunks {
		rf, err := cl.OpenRemote(filepath.Base(c.Path))
		if err != nil {
			return err
		}
		_, ft, jt, err := readChunk(rf, c)
		if err != nil {
			return err
		}
		xT += ft + jt
	}
	out.add("xrootd.read_mb_per_s", ratio(float64(flatBytes+jaggedBytes)/1e6, xT.Seconds()))
	return nil
}
