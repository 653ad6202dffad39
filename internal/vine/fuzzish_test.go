package vine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"hepvine/internal/randx"
)

// Robustness: readFrame must reject arbitrary garbage with an error, never
// panic or over-allocate.
func TestReadFrameNeverPanics(t *testing.T) {
	check := func(seed uint16, n uint8) bool {
		rng := randx.New(uint64(seed) + 1)
		buf := make([]byte, int(n))
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		defer func() {
			if recover() != nil {
				t.Errorf("readFrame panicked on %x", buf)
			}
		}()
		_, _ = readFrame(bytes.NewReader(buf))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A frame with a plausible header but corrupt JSON must error. The payload
// CRC is computed over the corrupt bytes, so this exercises the JSON layer
// behind an honest checksum.
func TestReadFrameCorruptBody(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("{bad}")
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("corrupt JSON frame accepted")
	}
}

// encodeFrame round-trips a real message through writeFrame.
func encodeFrame(t testing.TB, m *message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every truncation of a valid frame must fail with an error (io.EOF /
// io.ErrUnexpectedEOF), never a panic, never a spuriously decoded message.
func TestReadFrameTruncations(t *testing.T) {
	frame := encodeFrame(t, &message{Type: msgPutURL, PutURL: &putURLMsg{
		CacheName: "blob:deadbeef", Addr: "127.0.0.1:9", Size: 42,
	}})
	for cut := 0; cut < len(frame); cut++ {
		if _, err := readFrame(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(frame))
		}
	}
}

// Every single-byte flip of a valid frame must be rejected — a payload
// flip with the typed ErrCorruptFrame, a header flip with either
// ErrCorruptFrame or a framing error — and never decode into a message.
func TestReadFrameBitFlips(t *testing.T) {
	frame := encodeFrame(t, &message{Type: msgTransferDone, TransferDone: &transferDoneMsg{
		CacheName: "blob:cafe", OK: true, Size: 7,
	}})
	for pos := 0; pos < len(frame); pos++ {
		for _, mask := range []byte{0x01, 0x80, 0xA5} {
			mut := append([]byte(nil), frame...)
			mut[pos] ^= mask
			m, err := readFrame(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("bit flip at %d (mask %02x) accepted: %+v", pos, mask, m)
			}
			if pos >= 8 && !errors.Is(err, ErrCorruptFrame) {
				t.Fatalf("payload flip at %d (mask %02x): got %v, want ErrCorruptFrame", pos, mask, err)
			}
		}
	}
}

// Random corruption of valid frames: quick-check that no mutation panics
// and payload-region mutations always carry the typed sentinel.
func TestReadFrameRandomCorruption(t *testing.T) {
	frame := encodeFrame(t, &message{Type: msgTaskDone, TaskDone: &taskDoneMsg{
		TaskID: 3, OK: true, OutputSizes: map[string]int64{"out:ab:hist": 128},
	}})
	check := func(seed uint16) bool {
		rng := randx.New(uint64(seed) + 7)
		mut := append([]byte(nil), frame...)
		flips := 1 + rng.Intn(4)
		payloadOnly := true
		for i := 0; i < flips; i++ {
			pos := rng.Intn(len(mut))
			if pos < 8 {
				payloadOnly = false
			}
			mut[pos] ^= byte(1 + rng.Intn(255))
		}
		m, err := readFrame(bytes.NewReader(mut))
		if err == nil {
			// All flips cancelled out (possible when the same position is
			// hit twice with the same mask) — must decode identically.
			return m != nil
		}
		if payloadOnly && !errors.Is(err, ErrCorruptFrame) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("payload corruption gave untyped error: %v", err)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// jsonFrame frames m with a JSON body, the encoding writeFrame uses for
// every type but dispatch and task_done and readFrame accepts for all.
func jsonFrame(t testing.TB, m *message) []byte {
	t.Helper()
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return rawFrame(body)
}

// rawFrame puts an honest length and CRC-32C header in front of body.
func rawFrame(body []byte) []byte {
	frame := make([]byte, 8, 8+len(body))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	return append(frame, body...)
}

// frameSeeds is one message of every control-frame type, each pointer field
// filled the way the manager, workers and foremen fill it, plus dispatch and
// task_done with their slices and maps empty and nil.
func frameSeeds() []*message {
	return []*message{
		{Type: msgHello, Hello: &helloMsg{Name: "w0", Cores: 4, Memory: 1 << 30, TransferAddr: "127.0.0.1:9",
			DiskLimit: 1 << 20, Preemptible: true, Foreman: true,
			Inventory: []inventoryEntry{{CacheName: "blob:ab", Size: 3, Addr: "127.0.0.1:10"}}}},
		{Type: msgDispatch, Dispatch: &dispatchMsg{TaskID: 7, Mode: string(ModeFunctionCall), Library: "lib", Func: "fn",
			Args: []byte{0, 1, 0xff}, Inputs: []fileRefWire{{Name: "in", CacheName: "blob:ab"}},
			Outputs: []fileRefWire{{Name: "out", CacheName: "task:cd:out"}}, Cores: 1, Memory: 64}},
		{Type: msgDispatch, Dispatch: &dispatchMsg{TaskID: -1, Args: []byte{}, Inputs: []fileRefWire{},
			Outputs: []fileRefWire{{}}, Cores: -2, Memory: -3}},
		{Type: msgDispatch, Dispatch: &dispatchMsg{}},
		{Type: msgDispatch, Dispatch: &dispatchMsg{TaskID: 9, Mode: string(ModeFunctionCall), Library: "lib", Func: "fn",
			Inputs:  []fileRefWire{{Name: "data", CacheName: "shared:ab", Path: "/data/a.root"}, {Name: "in", CacheName: "blob:ab"}},
			Outputs: []fileRefWire{{Name: "out", CacheName: "task:cd:out"}}, Cores: 1}},
		{Type: msgTaskDone, TaskDone: &taskDoneMsg{TaskID: 7, OK: true, Error: "e",
			OutputSizes: map[string]int64{"task:cd:out": 12, "task:cd:hist": -1, "": 0}, ExecNanos: 1500, SetupNanos: 20}},
		{Type: msgTaskDone, TaskDone: &taskDoneMsg{TaskID: 1 << 40, OutputSizes: map[string]int64{}, ExecNanos: -1}},
		{Type: msgTaskDone, TaskDone: &taskDoneMsg{}},
		{Type: msgTaskDone, TaskDone: &taskDoneMsg{TaskID: 9, Error: "shared input changed", ExecNanos: 3, Stale: "shared:ab"}},
		{Type: msgPutURL, PutURL: &putURLMsg{CacheName: "blob:ab", Addr: "127.0.0.1:9", Size: 3}},
		{Type: msgTransferDone, TransferDone: &transferDoneMsg{CacheName: "blob:ab", OK: false, Error: "crc", Size: 3, Corrupt: true}},
		{Type: msgLibrary, Library: &libraryMsg{Name: "lib", Hoist: true}},
		{Type: msgUnlink, Unlink: &unlinkMsg{CacheName: "blob:ab"}},
		{Type: msgEvicted, Evicted: &evictedMsg{CacheName: "blob:ab", Size: 3}},
		{Type: msgInventoryAck, InventoryAck: &inventoryAckMsg{Known: []string{"blob:ab"}}},
		{Type: msgKill},
		{Type: msgTakeover, Takeover: &takeoverMsg{Holder: "standby", Epoch: 2}},
		{Type: msgDraining, Draining: &drainingMsg{GraceNanos: 1e9}},
		{Type: msgDrainDone},
		{Type: msgPing},
		{Type: msgPong},
		{Type: msgLease, Lease: &leaseBatchMsg{Leases: []leaseEntryWire{{TaskID: 8, Mode: string(ModeTask), Library: "lib",
			Func: "fn", Args: []byte("a"), Inputs: []fileRefWire{{Name: "in", CacheName: "blob:ab"}}, Cores: 1,
			Tickets: []ticketWire{{CacheName: "blob:ab", Addr: "127.0.0.1:9", Size: 3}}}}}},
		{Type: msgReport, Report: &foremanReportMsg{Backlog: 2, Done: []leaseDoneWire{{TaskID: 8, OK: true,
			OutputSizes: map[string]int64{"task:ef:out": 4}, OutputAddrs: map[string]string{"task:ef:out": "127.0.0.1:11"},
			InputAddrs: map[string]string{"blob:ab": "127.0.0.1:11"}, InputSizes: map[string]int64{"blob:ab": 3},
			Lost: []lostReplicaWire{{CacheName: "blob:gh", Addr: "127.0.0.1:12", Corrupt: true}}, ExecNanos: 9}}}},
	}
}

// FuzzReadFrame feeds readFrame arbitrary bytes. With fixCRC set, the
// header's length and CRC are rewritten to match whatever body follows, so
// mutated payloads get past the checksum to the body decoders. Every seed
// comes in both encodings: writeFrame's (binary for dispatch and task_done)
// and JSON. readFrame must never panic, and a message it accepts must
// round-trip through writeFrame: encoding it, reading that back and encoding
// again gives the same bytes. A JSON dispatch or task_done therefore
// re-encodes to binary and must survive that.
func FuzzReadFrame(f *testing.F) {
	for _, m := range frameSeeds() {
		for _, frame := range [][]byte{encodeFrame(f, m), jsonFrame(f, m)} {
			f.Add(frame, false)
			f.Add(frame, true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 8 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(data[:4], uint32(len(data)-8))
			binary.LittleEndian.PutUint32(data[4:8], crc32.Checksum(data[8:], castagnoli))
		}
		m, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := encodeFrame(t, m)
		back, err := readFrame(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v\n%s", err, once[8:])
		}
		if twice := encodeFrame(t, back); !bytes.Equal(once, twice) {
			t.Fatalf("message does not round-trip:\n%s\n%s", once[8:], twice[8:])
		}
	})
}

// A header claiming a maxFrame body on a stream that ends after a few bytes
// fails without allocating anything near the claimed length.
func TestReadFrameForgedLengthAllocatesWhatArrives(t *testing.T) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], maxFrame)
	stream := append(hdr[:], `{"type":`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("forged length: got %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*frameChunk {
		t.Fatalf("forged %d-byte length allocated %d bytes for a %d-byte stream", maxFrame, got, len(stream))
	}
}
