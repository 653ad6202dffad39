package vine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"hepvine/internal/journal"
	"hepvine/internal/obs"
)

// ---- unit: transfer-plane checksum ----

// badTrailerServer is a minimal transfer server that answers every GET
// with the given body and an attacker-controlled CRC trailer.
func badTrailerServer(t *testing.T, body []byte, crc uint32) string {
	reply := fmt.Appendf(nil, "OK %d\n", len(body))
	return scriptedServer(t, binary.LittleEndian.AppendUint32(append(reply, body...), crc))
}

// scriptedServer answers every GET with reply, verbatim, and hangs up.
func scriptedServer(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				if _, err := bufio.NewReader(c).ReadString('\n'); err != nil {
					return
				}
				c.Write(reply)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// A transfer header claiming a huge size allocates no more than the
// presize cap plus what arrives; an honest one lands in one allocation
// (no doubling growth, no final copy).
func TestFetchBytesAllocatesWhatArrives(t *testing.T) {
	fetchAlloc := func(addr string) ([]byte, uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, err := defaultNetConfig().fetchBytes(addr, "blob:test", "test/fetch")
		runtime.ReadMemStats(&after)
		return data, after.TotalAlloc - before.TotalAlloc, err
	}
	forged := scriptedServer(t, append([]byte("OK 1099511627776\n"), make([]byte, 100)...))
	if _, alloc, err := fetchAlloc(forged); err == nil || alloc > fetchPresizeMax+256<<10 {
		t.Fatalf("forged 1 TiB size with 100 bytes sent: err %v, allocated %d bytes", err, alloc)
	}

	body := bytes.Repeat([]byte("histogram bytes "), 48<<10) // 768 KiB
	honest := badTrailerServer(t, body, crc32.Checksum(body, castagnoli))
	data, alloc, err := fetchAlloc(honest)
	if err != nil || !bytes.Equal(data, body) {
		t.Fatalf("honest fetch: %v", err)
	}
	if alloc > uint64(len(body))+256<<10 {
		t.Fatalf("fetching %d bytes allocated %d", len(body), alloc)
	}
}

func TestFetchDetectsCorruptTrailer(t *testing.T) {
	body := []byte("histogram bytes")
	good := crc32.Checksum(body, castagnoli)
	addr := badTrailerServer(t, body, good^0xDEADBEEF)
	_, err := defaultNetConfig().fetchBytes(addr, "blob:test", "test/fetch")
	if !errors.Is(err, ErrCorruptTransfer) {
		t.Fatalf("corrupt trailer: got %v, want ErrCorruptTransfer", err)
	}

	// Sanity: the same exchange with an honest trailer succeeds.
	okAddr := badTrailerServer(t, body, good)
	data, err := defaultNetConfig().fetchBytes(okAddr, "blob:test", "test/fetch")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, body) {
		t.Fatalf("honest transfer mutated payload: %q", data)
	}
}

// A reply cut short in the body or in its trailer fails as that, not as a
// corrupt payload, into memory and into a file alike.
func TestFetchRejectsTruncatedReply(t *testing.T) {
	body := []byte("histogram bytes")
	full := fmt.Appendf(nil, "OK %d\n", len(body))
	hdr := len(full)
	full = binary.LittleEndian.AppendUint32(append(full, body...), crc32.Checksum(body, castagnoli))
	for _, tc := range []struct {
		cut  int
		want string
	}{
		{hdr, "short transfer: 0 of 15"},
		{hdr + 5, "short transfer: 5 of 15"},
		{len(full) - 2, "reading transfer checksum"},
	} {
		addr := scriptedServer(t, full[:tc.cut])
		_, memErr := defaultNetConfig().fetchBytes(addr, "blob:test", "test/fetch")
		_, _, fileErr := defaultNetConfig().fetchToFile(addr, "blob:test", t.TempDir()+"/dst", "test/fetch")
		for _, err := range []error{memErr, fileErr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) || errors.Is(err, ErrCorruptTransfer) {
				t.Fatalf("reply cut to %d of %d bytes: err %v, want %q", tc.cut, len(full), err, tc.want)
			}
		}
	}
}

// The real server↔fetch pair must round-trip with the checksum verified.
func TestTransferChecksumRoundTrip(t *testing.T) {
	m, _ := newCluster(t, 1, 1)
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("payload"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := string(fetchOutput(t, m, h, "out")); got != "echo:payload" {
		t.Fatalf("got %q", got)
	}
}

// A cached file that rots on disk after it entered the cache still goes
// out with the CRC-32C it was stored with, so the fetcher sees a mismatch:
// the rotted replica is quarantined and lineage regenerates the true bytes.
func TestRotAtRestCaughtOnReceipt(t *testing.T) {
	m, ws := newCluster(t, 1, 1, WithRecoveryTimeout(10*time.Second))
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("precious"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cn, _ := h.Output("out")
	m.mu.Lock()
	holders := m.reps.Holders(string(cn))
	m.mu.Unlock()
	if len(holders) != 1 {
		t.Fatalf("output held by %v, want one worker", holders)
	}
	path := ws[0].cachePath(cn)
	want := []byte("echo:precious")
	if err := writeFileHelper(path, bytes.ToUpper(want)); err != nil {
		t.Fatal(err)
	}

	data, err := m.FetchBytes(cn)
	if err != nil {
		t.Fatalf("FetchBytes of a rotted replica: %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("FetchBytes returned %q, want the regenerated %q", data, want)
	}
	if st := m.Stats(); st.CorruptTransfers < 1 {
		t.Fatalf("CorruptTransfers = %d, want >= 1", st.CorruptTransfers)
	}
}

// A declared file rewritten after DeclareFile no longer matches the
// cachename its hash gave it. Staging it fails its checksum on every
// attempt, so the consumer fails naming the corrupt transfer and never
// runs on the new bytes. It fails exactly once: one task_fail event and
// one KindTaskFail journal record, however many staging attempts failed.
func TestDeclaredFileRewrittenFailsStaging(t *testing.T) {
	rec := obs.NewRecorder()
	dir := t.TempDir()
	jr := openJournal(t, dir)
	defer jr.Close()
	m, ws := newCluster(t, 1, 1, WithMaxRetries(1), WithRetryBackoff(time.Millisecond, time.Millisecond),
		WithRecorder(rec), WithJournal(jr))
	path := t.TempDir() + "/input.txt"
	if err := writeFileHelper(path, []byte("file content")); err != nil {
		t.Fatal(err)
	}
	cn, err := m.DeclareFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFileHelper(path, []byte("file CONTENT")); err != nil {
		t.Fatal(err)
	}
	h, err := m.Submit(Task{
		Mode: ModeTask, Library: "testlib", Func: "upper",
		Inputs:  []FileRef{{Name: "in", CacheName: cn}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = h.Wait(10 * time.Second)
	if err == nil || !strings.Contains(err.Error(), ErrCorruptTransfer.Error()) {
		t.Fatalf("task on a rewritten declared file: err %v, want the corrupt transfer named", err)
	}
	if n := ws[0].Stats().TasksRun; n != 0 {
		t.Fatalf("worker ran %d tasks on bytes that fail their checksum", n)
	}
	if st := m.Stats(); st.CorruptTransfers < 1 {
		t.Fatalf("CorruptTransfers = %d, want >= 1", st.CorruptTransfers)
	}
	// Stop waits out the handler that closed the handle and syncs the
	// journal, so both counts below are final.
	m.Stop()
	fails := 0
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvTaskFail {
			fails++
		}
	}
	if st := m.Stats(); fails != 1 || st.TasksFailed != 1 {
		t.Fatalf("%d task_fail events and TasksFailed %d, want 1 of each", fails, st.TasksFailed)
	}
	journalFails := 0
	if _, err := jr.Replay(func(r journal.Record) {
		if r.Kind == journal.KindTaskFail {
			journalFails++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if journalFails != 1 {
		t.Fatalf("%d KindTaskFail journal records, want 1", journalFails)
	}
}

// ---- regression: replica table purged at worker loss ----

// A lost worker must vanish from every fileState the instant the loss is
// handled, not just the files its own cache view listed — otherwise
// pickSourceLocked can hand out a dead source between heartbeat-miss and
// cleanup.
func TestWorkerLossPurgesReplicaTable(t *testing.T) {
	m, ws := newCluster(t, 2, 1)
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("x"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Find the holder's manager-side id, then record an extra replica the
	// worker itself never reported.
	cn, _ := h.Output("out")
	m.mu.Lock()
	var holder int = -1
	for _, wid := range m.reps.Holders(string(cn)) {
		holder = wid
	}
	phantom := CacheName("blob:" + strings.Repeat("ab", 32))
	m.files[phantom] = &fileState{producer: -1}
	m.reps.Add(string(phantom), holder)
	holderName := m.workers[holder].name
	m.mu.Unlock()
	if holder < 0 {
		t.Fatal("no worker holds the output")
	}

	for _, w := range ws {
		if w.Name == holderName {
			w.Stop()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.WorkerCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.files {
		if m.reps.Holds(string(name), holder) {
			t.Fatalf("file %s still lists lost worker %d as a replica", name, holder)
		}
	}
	if n, b := m.reps.Count(holder), m.reps.Bytes(holder); n != 0 || b != 0 {
		t.Fatalf("lost worker %d still charged %d files, %d bytes", holder, n, b)
	}
}

// ---- integration: lineage recovery ----

// Killing the only worker holding a task output must not fail FetchBytes:
// the manager rolls the producer back, re-executes it on a surviving
// worker, and serves the regenerated bytes — with the rollback visible in
// both the counters and the trace.
func TestFetchBytesLineageRecovery(t *testing.T) {
	rec := obs.NewRecorder()
	m, ws := newCluster(t, 2, 1,
		WithRecorder(rec),
		WithRecoveryTimeout(10*time.Second),
	)
	h, err := m.SubmitFunc(ModeTask, "testlib", "echo", []byte("precious"), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	cn, _ := h.Output("out")
	m.mu.Lock()
	var holderName string
	for _, wid := range m.reps.Holders(string(cn)) {
		holderName = m.workers[wid].name
	}
	m.mu.Unlock()
	if holderName == "" {
		t.Fatal("no worker holds the output")
	}
	for _, w := range ws {
		if w.Name == holderName {
			w.Stop()
		}
	}

	data, err := m.FetchBytes(cn)
	if err != nil {
		t.Fatalf("FetchBytes after sole-replica loss: %v", err)
	}
	if string(data) != "echo:precious" {
		t.Fatalf("recovered bytes differ: %q", data)
	}
	if st := m.Stats(); st.LineageReruns < 1 {
		t.Fatalf("LineageReruns = %d, want >= 1", st.LineageReruns)
	}
	found := false
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvLineageRollback && ev.Detail == string(cn) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no EvLineageRollback event for the lost output")
	}
}

// A file with no producer (a declared blob) whose replicas are gone is
// unrecoverable and must error promptly rather than wait out the timeout.
func TestFetchBytesUnrecoverable(t *testing.T) {
	m, _ := newCluster(t, 1, 1, WithRecoveryTimeout(30*time.Second))
	// A submitted task's output name that no task produces: fabricate a
	// worker-only fileState with no live holder and no producer.
	name := CacheName("blob:" + strings.Repeat("cd", 32))
	m.mu.Lock()
	m.files[name] = &fileState{producer: -1}
	m.reps.Add(string(name), 99)
	m.mu.Unlock()
	start := time.Now()
	if _, err := m.FetchBytes(name); err == nil {
		t.Fatal("fetch of unrecoverable file succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("unrecoverable fetch waited out the recovery timeout")
	}
}
