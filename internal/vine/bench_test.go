package vine

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkFrameCodec measures one writeFrame+readFrame round trip of the
// control protocol for the two frames every task costs: its dispatch and
// its completion.
func BenchmarkFrameCodec(b *testing.B) {
	frames := map[string]*message{
		"dispatch": {Type: msgDispatch, Dispatch: &dispatchMsg{
			TaskID: 4242, Mode: string(ModeFunctionCall), Library: "benchlib", Func: "noop",
			Args:    []byte("arguments"),
			Inputs:  []fileRefWire{{Name: "in", CacheName: "blob:" + fmt.Sprintf("%064x", 1)}},
			Outputs: []fileRefWire{{Name: "out", CacheName: "task:" + fmt.Sprintf("%064x", 2)}},
			Cores:   1,
		}},
		"completion": {Type: msgTaskDone, TaskDone: &taskDoneMsg{
			TaskID: 4242, OK: true,
			OutputSizes: map[string]int64{"task:" + fmt.Sprintf("%064x", 2): 1 << 20},
			ExecNanos:   12345, SetupNanos: 678,
		}},
	}
	for _, name := range []string{"dispatch", "completion"} {
		m := frames[name]
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := writeFrame(&buf, m); err != nil {
					b.Fatal(err)
				}
				got, err := readFrame(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if got.Type != m.Type {
					b.Fatalf("round trip type %q, want %q", got.Type, m.Type)
				}
			}
		})
	}
}

// benchCluster starts a manager + one multi-core worker for latency and
// throughput measurements of the live engine itself.
func benchCluster(b *testing.B, cores int) *Manager {
	b.Helper()
	MustRegisterLibrary(&Library{
		Name:  "benchlib",
		Setup: func() (any, error) { return nil, nil },
		Funcs: map[string]Function{
			"noop": func(c *Call) error {
				c.SetOutput("out", c.Args)
				return nil
			},
		},
	})
	m, err := NewManager(WithPeerTransfers(true), WithLibrary("benchlib", true))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Stop)
	w, err := NewWorker(m.Addr(), WithCores(cores), WithCacheDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Stop)
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFunctionCallLatency measures one submit→execute→notify round
// trip of the live engine over loopback TCP.
func BenchmarkFunctionCallLatency(b *testing.B) {
	m := benchCluster(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := m.SubmitFunc(ModeFunctionCall, "benchlib", "noop", []byte(fmt.Sprint(i)), "out")
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Wait(10 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFunctionCallThroughput measures pipelined submission: N calls in
// flight against a 8-slot worker.
func BenchmarkFunctionCallThroughput(b *testing.B) {
	m := benchCluster(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	handles := make([]*TaskHandle, b.N)
	for i := range handles {
		h, err := m.SubmitFunc(ModeFunctionCall, "benchlib", "noop", []byte(fmt.Sprint(i)), "out")
		if err != nil {
			b.Fatal(err)
		}
		handles[i] = h
	}
	for _, h := range handles {
		if err := h.Wait(30 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransfer measures one data-plane fetch of a cached task output
// from a worker's transfer server, into memory (the manager's collection
// path) and into a file (worker-to-worker staging). 2363 B is the size of
// a DV3 histogram partial; 1 MiB is the shuffle workload's blob.
func BenchmarkTransfer(b *testing.B) {
	m := benchCluster(b, 1)
	for _, size := range []int{2363, 1 << 20} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		h, err := m.SubmitFunc(ModeFunctionCall, "benchlib", "noop", payload, "out")
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Wait(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		cn, _ := h.Output("out")
		addr, _, ok := m.ReplicaInfo(cn)
		if !ok {
			b.Fatalf("no replica of the %d-byte output", size)
		}
		nc := defaultNetConfig()
		b.Run(fmt.Sprintf("%dB/memory", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := nc.fetchBytes(addr, cn, "bench/fetch")
				if err != nil || len(data) != size {
					b.Fatalf("fetched %d bytes: %v", len(data), err)
				}
			}
		})
		b.Run(fmt.Sprintf("%dB/file", size), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "dst")
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n, _, err := nc.fetchToFile(addr, cn, path, "bench/fetch"); err != nil || n != int64(size) {
					b.Fatalf("fetched %d bytes: %v", n, err)
				}
			}
		})
	}
}
