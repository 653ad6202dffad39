package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"hepvine/internal/vine"
)

const shuffleLib = "benchshuffle"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// genBlob fills size bytes (a multiple of 8) from an xorshift stream: cheap
// enough that producing a blob is a trivial kernel, and reproducible on the
// benchmark's side for the output checks.
func genBlob(seed uint64, size int) []byte {
	b := make([]byte, size)
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b
}

// wordSum adds the blob's 64-bit words.
func wordSum(b []byte) uint64 {
	var s uint64
	for i := 0; i+8 <= len(b); i += 8 {
		s += binary.LittleEndian.Uint64(b[i:])
	}
	return s
}

func registerShuffleLib() {
	vine.MustRegisterLibrary(&vine.Library{
		Name: shuffleLib,
		Funcs: map[string]vine.Function{
			// produce: args = seed u64, size u32; output blob.
			"produce": timedBody(func(c *vine.Call) error {
				if len(c.Args) != 12 {
					return fmt.Errorf("produce: bad args")
				}
				c.SetOutput("blob", genBlob(binary.LittleEndian.Uint64(c.Args), int(binary.LittleEndian.Uint32(c.Args[8:]))))
				return nil
			}),
			// consume: output is the first input with its first word
			// replaced by the word sum of all inputs.
			"consume": timedBody(func(c *vine.Call) error {
				var sum uint64
				var first []byte
				for i, name := range c.InputNames() {
					b, err := c.Input(name)
					if err != nil {
						return err
					}
					sum += wordSum(b)
					if i == 0 {
						first = b
					}
				}
				binary.LittleEndian.PutUint64(first, sum)
				c.SetOutput("blob", first)
				return nil
			}),
			// digest: output is the 8-byte word sum of the input.
			"digest": timedBody(func(c *vine.Call) error {
				b, err := c.Input("in")
				if err != nil {
					return err
				}
				c.SetOutput("sum", binary.LittleEndian.AppendUint64(nil, wordSum(b)))
				return nil
			}),
		},
	})
}

// shuffle moves blobs in all three directions of the data path: declared
// buffers staged manager → worker, producer outputs pulled worker ↔ worker by
// consumers, consumer outputs fetched worker → manager. 2 workers x 1 core.
type shuffle struct {
	blob      int // bytes per blob
	producers int
	staged    int
	buffers   [][]byte // declared manager-side inside the timed region
	bufSums   []uint64
	wantCRC   []uint32 // per consumer output
	seed      uint64
}

// fanIn is how many producers' outputs each consumer reads.
const fanIn = 4

func (s *shuffle) inputsOf(i int) [fanIn]int {
	var in [fanIn]int
	for j := range in {
		in[j] = (i + j*s.producers/fanIn) % s.producers
	}
	return in
}

func (s *shuffle) prepare(e *env) error {
	registerShuffleLib()
	s.blob = 1 << 20
	if e.scale < 1 {
		s.blob = 64 << 10
	}
	s.producers, s.staged = e.scaled(128, 8), e.scaled(48, 4)
	s.seed = uint64(e.seed) << 20
	sums := make([]uint64, s.producers)
	for k := range sums {
		sums[k] = wordSum(genBlob(s.seed+uint64(k), s.blob))
	}
	s.wantCRC = make([]uint32, s.producers)
	for i := range s.wantCRC {
		in := s.inputsOf(i)
		// InputNames is sorted, so in0 is the consumer's first input.
		out := genBlob(s.seed+uint64(in[0]), s.blob)
		var sum uint64
		for _, k := range in {
			sum += sums[k]
		}
		binary.LittleEndian.PutUint64(out, sum)
		s.wantCRC[i] = crc32.Checksum(out, castagnoli)
	}
	s.buffers = make([][]byte, s.staged)
	s.bufSums = make([]uint64, s.staged)
	for k := range s.buffers {
		s.buffers[k] = genBlob(s.seed+uint64(1<<16+k), s.blob)
		s.bufSums[k] = wordSum(s.buffers[k])
	}
	return nil
}

func (s *shuffle) shape() map[string]any {
	return map[string]any{"blob_bytes": s.blob, "producers": s.producers, "consumers": s.producers,
		"fan_in": fanIn, "staged_buffers": s.staged, "workers": 2, "cores_per_worker": 1}
}

func (s *shuffle) run(e *env, traced bool) (round, error) {
	var r round
	dir, err := e.freshDir("shuffle")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	rec, recEpoch := newRecorder(traced)
	c, err := startCluster(dir, 2, 1, rec, []vine.Option{
		vine.WithPeerTransfers(true), vine.WithLibrary(shuffleLib, true),
	})
	if err != nil {
		return r, err
	}
	defer c.stop()

	root := e.tr.begin("round", 0, "shuffle")
	e.tr.round.Store(root.id)
	bodyNanos.Store(0)
	tracingBodies.Store(traced)
	m := startMeter(traced)

	// Phase 1, manager → worker: declare the buffers, digest each.
	tr := newTaskRun(s.staged + 2*s.producers)
	for _, buf := range s.buffers {
		sp := e.tr.begin("vine.DeclareBuffer", root.id, "")
		cn := c.mgr.DeclareBuffer(buf)
		sp.end()
		if err := tr.submit(e, c.mgr, vine.Task{Mode: vine.ModeFunctionCall, Library: shuffleLib, Func: "digest",
			Inputs: []vine.FileRef{{Name: "in", CacheName: cn}}, Outputs: []string{"sum"}, Cores: 1}, root.id); err != nil {
			return r, err
		}
	}
	for range s.buffers {
		if err := tr.waitOne(e, c.mgr, root.id); err != nil {
			return r, err
		}
	}

	// Phase 2, worker ↔ worker: producers, then consumers reading four of
	// their outputs each. A consumer names its inputs by the producers'
	// output cachenames, which exist once the producers are submitted.
	for k := 0; k < s.producers; k++ {
		args := binary.LittleEndian.AppendUint64(nil, s.seed+uint64(k))
		args = binary.LittleEndian.AppendUint32(args, uint32(s.blob))
		if err := tr.submit(e, c.mgr, vine.Task{Mode: vine.ModeFunctionCall, Library: shuffleLib, Func: "produce",
			Args: args, Outputs: []string{"blob"}, Cores: 1}, root.id); err != nil {
			return r, err
		}
	}
	producers := tr.handles[s.staged:]
	for i := 0; i < s.producers; i++ {
		t := vine.Task{Mode: vine.ModeFunctionCall, Library: shuffleLib, Func: "consume",
			Args: []byte(fmt.Sprint(i)), Outputs: []string{"blob"}, Cores: 1}
		for j, k := range s.inputsOf(i) {
			cn, _ := producers[k].Output("blob")
			t.Inputs = append(t.Inputs, vine.FileRef{Name: fmt.Sprintf("in%d", j), CacheName: cn})
		}
		if err := tr.submit(e, c.mgr, t, root.id); err != nil {
			return r, err
		}
	}
	for i := 0; i < 2*s.producers; i++ {
		if err := tr.waitOne(e, c.mgr, root.id); err != nil {
			return r, err
		}
	}
	consumers := tr.handles[s.staged+s.producers:]

	// Phase 3, worker → manager: fetch every consumer output.
	var fetched int64
	var fetchT time.Duration
	var fetchIv [][2]int64
	badCRC := 0
	for i, h := range consumers {
		cn, _ := h.Output("blob")
		sp := e.tr.begin("vine.FetchBytes", root.id, fmt.Sprintf("c%d", i))
		f0 := time.Now()
		b, err := c.mgr.FetchBytes(cn)
		f1 := time.Now()
		sp.end()
		if err != nil {
			return r, fmt.Errorf("fetch consumer %d: %w", i, err)
		}
		fetched += int64(len(b))
		fetchT += f1.Sub(f0)
		// A burst's Submit-to-Done times are queue positions; what a
		// client of the data path waits for is a blob.
		r.latencyMs = append(r.latencyMs, ms(int64(f1.Sub(f0))))
		fetchIv = append(fetchIv, [2]int64{int64(f0.Sub(recEpoch)), int64(f1.Sub(recEpoch))})
		if crc32.Checksum(b, castagnoli) != s.wantCRC[i] {
			badCRC++
		}
	}
	m.stop(&r)
	tracingBodies.Store(false)
	root.end()

	st := c.mgr.Stats()
	r.work = float64(st.PeerBytes+st.ManagerBytes+fetched) / 1e6
	r.tasks = s.staged + 2*s.producers
	r.heapMB = retainedHeapMB()

	// Digest sums, outside the timed region: 8-byte fetches.
	badSum := 0
	for k, h := range tr.handles[:s.staged] {
		cn, _ := h.Output("sum")
		b, err := c.mgr.FetchBytes(cn)
		if err != nil || len(b) != 8 || binary.LittleEndian.Uint64(b) != s.bufSums[k] {
			badSum++
		}
	}
	r.attempted = r.tasks + s.producers + s.staged
	r.fail("task error", tr.failed)
	r.fail("fetched blob CRC differs", badCRC)
	r.fail("digest sum differs", badSum)

	if traced {
		r.layer = map[string]float64{}
		events := rec.Events()
		foldStages(events, recEpoch, tr.doneAt, r.layer)
		foldTransfers(events, fetchIv, r.wall, r.layer)
		foldControl(&r, time.Duration(bodyNanos.Load()), st, r.layer)
		r.layer["vine.transfer.fetch_mb_per_s"] = ratio(float64(fetched)/1e6, fetchT.Seconds())
	}
	return r, nil
}

// layers: the data path has no driver of its own; its per-layer numbers come
// from the transfer events of the traced rounds.
func (s *shuffle) layers(e *env, out layerValues) error { return nil }
