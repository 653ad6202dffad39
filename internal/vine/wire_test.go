package vine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hepvine/internal/wire"
)

// The binary and JSON bodies of a dispatch or task_done decode to the same
// message, including which slices and maps come back nil.
func TestBinaryBodyMatchesJSON(t *testing.T) {
	n := 0
	for _, m := range frameSeeds() {
		if m.Type != msgDispatch && m.Type != msgTaskDone {
			continue
		}
		n++
		bin := encodeFrame(t, m)
		if bin[8] >= 0x20 {
			t.Fatalf("%s: writeFrame body starts %q, want a binary tag", m.Type, bin[8])
		}
		fromBin, err := readFrame(bytes.NewReader(bin))
		if err != nil {
			t.Fatalf("%s binary: %v", m.Type, err)
		}
		fromJSON, err := readFrame(bytes.NewReader(jsonFrame(t, m)))
		if err != nil {
			t.Fatalf("%s JSON: %v", m.Type, err)
		}
		if !reflect.DeepEqual(fromBin, fromJSON) {
			t.Fatalf("%s decodes differently:\nbinary %s\nJSON   %s", m.Type, payload(fromBin), payload(fromJSON))
		}
	}
	if n < 6 {
		t.Fatalf("only %d dispatch/task_done seeds", n)
	}
}

// payload prints a dispatch or task_done body with nil and empty told apart.
func payload(m *message) string {
	if m.Dispatch != nil {
		return fmt.Sprintf("%#v", *m.Dispatch)
	}
	return fmt.Sprintf("%#v", *m.TaskDone)
}

// Strings and Args are copied out of the frame buffer, so reusing the
// buffer cannot change a decoded message.
func TestBinaryDecodeCopies(t *testing.T) {
	frame := encodeFrame(t, &message{Type: msgDispatch, Dispatch: &dispatchMsg{
		Func: "fn", Args: []byte("args"), Inputs: []fileRefWire{{Name: "in", CacheName: "blob:ab"}}}})
	m, err := decodeBody(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < len(frame); i++ {
		frame[i] = 'X'
	}
	d := m.Dispatch
	if d.Func != "fn" || string(d.Args) != "args" || d.Inputs[0].CacheName != "blob:ab" {
		t.Fatalf("decoded message aliases the frame: %+v", d)
	}
}

func TestBinaryBodyRejects(t *testing.T) {
	done := encodeFrame(t, &message{Type: msgTaskDone, TaskDone: &taskDoneMsg{TaskID: 3, OK: true}})[8:]
	okAt := 2 // tag, one-byte varint TaskID, then the OK byte
	badBool := append([]byte(nil), done...)
	badBool[okAt] = 2
	// Two output sizes, keys out of order.
	unsorted := []byte{tagTaskDone, 0, 1, 0, 2, 1, 'b', 0, 1, 'a', 0, 0, 0}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{
		{"unknown tag", "unknown binary tag", []byte{3, 0}},
		{"trailing bytes", "trailing bytes", append(append([]byte(nil), done...), 0)},
		{"truncated varint", wire.ErrTruncated.Error(), []byte{tagDispatch, 0x80}},
		{"bool byte 2", "bool byte 2", badBool},
		{"string past the end", wire.ErrTruncated.Error(), []byte{tagDispatch, 0, 5, 'a'}},
		{"unsorted output sizes", "out of order", unsorted},
		{"tag only", wire.ErrTruncated.Error(), []byte{tagTaskDone}},
	} {
		m, err := readFrame(bytes.NewReader(rawFrame(tc.body)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %+v, %v; want an error containing %q", tc.name, m, err, tc.want)
		}
	}
}

// A 20-byte dispatch claiming 2^31 inputs fails on what the frame carries,
// without sizing anything by the claimed count.
func TestBinaryForgedCountAllocatesWhatArrives(t *testing.T) {
	body := []byte{tagDispatch, 2, 0, 0, 0, 0} // TaskID 1, empty Mode, Library, Func, Args
	body = binary.AppendUvarint(body, 1<<31)
	for len(body) < 20 {
		body = append(body, 1, 'x')
	}
	frame := rawFrame(body[:20])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), wire.ErrTruncated.Error()) {
		t.Fatalf("forged count: got %v, want a truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*frameChunk {
		t.Fatalf("forged 2^31 input count allocated %d bytes for a %d-byte frame", got, len(frame))
	}
}

// Encoding a dispatch or a task_done into a buffer with room allocates
// nothing.
func TestFrameEncodeAllocs(t *testing.T) {
	for _, m := range []*message{
		{Type: msgDispatch, Dispatch: &dispatchMsg{TaskID: 4242, Mode: string(ModeFunctionCall),
			Library: "lib", Func: "noop", Args: []byte("arguments"),
			Inputs:  []fileRefWire{{Name: "in", CacheName: "blob:ab"}},
			Outputs: []fileRefWire{{Name: "out", CacheName: "task:cd:out"}}, Cores: 1}},
		{Type: msgTaskDone, TaskDone: &taskDoneMsg{TaskID: 4242, OK: true,
			OutputSizes: map[string]int64{"task:cd:out": 1 << 20}, ExecNanos: 12345, SetupNanos: 678}},
	} {
		buf := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = appendFrame(buf[:0], m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("appendFrame(%s) allocated %v times, want 0", m.Type, allocs)
		}
	}
}

// gatedConn counts Write calls and holds the first one until gate closes.
type gatedConn struct {
	net.Conn
	writes  atomic.Int32
	entered chan struct{} // closed when the first Write starts
	gate    chan struct{}
}

func newGatedConn(c net.Conn) *gatedConn {
	return &gatedConn{Conn: c, entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gatedConn) Write(p []byte) (int, error) {
	if g.writes.Add(1) == 1 {
		close(g.entered)
		<-g.gate
	}
	return g.Conn.Write(p)
}

// Close leaves the pipe open, so the write in flight when conn.close runs
// can still finish and the test can watch what the writer does next.
func (g *gatedConn) Close() error { return nil }

// startConn is newConn with a channel closed when the writer exits.
func startConn(c net.Conn) (*conn, chan struct{}) {
	cc := &conn{c: c, r: bufio.NewReader(c)}
	cc.cond = sync.NewCond(&cc.mu)
	exited := make(chan struct{})
	go func() {
		cc.writeLoop()
		close(exited)
	}()
	return cc, exited
}

func pingFrame(id int) *message {
	return &message{Type: msgDispatch, Dispatch: &dispatchMsg{TaskID: id, Func: "noop"}}
}

// Frames queued while the writer is busy go out together, in order, in one
// more Write.
func TestConnBatchesQueuedFrames(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	g := newGatedConn(a)
	cc, exited := startConn(g)
	cc.send(pingFrame(-1))
	<-g.entered
	const n = 100
	for i := 0; i < n; i++ {
		cc.send(pingFrame(i))
	}
	close(g.gate)
	r := bufio.NewReader(b)
	for want := -1; want < n; want++ {
		m, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if m.Dispatch == nil || m.Dispatch.TaskID != want {
			t.Fatalf("frame %d arrived as %+v", want, m)
		}
	}
	if w := g.writes.Load(); w > 3 {
		t.Fatalf("%d frames took %d writes, want at most 3", n+1, w)
	}
	cc.close()
	<-exited
}

// close drops frames still queued, and the writer exits once the write in
// flight returns.
func TestConnCloseDropsQueued(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	g := newGatedConn(a)
	cc, exited := startConn(g)
	cc.send(pingFrame(-1))
	<-g.entered
	for i := 0; i < 10; i++ {
		cc.send(pingFrame(i))
	}
	cc.close()
	close(g.gate)
	r := bufio.NewReader(b)
	if m, err := readFrame(r); err != nil || m.Dispatch.TaskID != -1 {
		t.Fatalf("in-flight frame: %+v, %v", m, err)
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("writer still running after close")
	}
	if w := g.writes.Load(); w != 1 {
		t.Fatalf("writes = %d after close, want only the one in flight", w)
	}
	a.Close()
	if _, err := readFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("read after close: %v, want EOF", err)
	}
}
