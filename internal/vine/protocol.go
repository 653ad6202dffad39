// Package vine is a real distributed task and data scheduler modelled on
// TaskVine (§II.C, §IV.B): a central manager coordinates workers over TCP;
// workers hold a content-addressed on-disk cache, execute tasks or
// serverless function calls, and serve peer transfers to one another so
// intermediate data never has to round-trip through the manager or a shared
// filesystem.
//
// The engine is fully functional: examples and integration tests run
// managers and workers (in-process goroutines or the cmd/vineworker binary)
// over loopback TCP, move real bytes, and survive worker kills. The
// cluster-scale *performance* questions are answered by the simulation
// plane (internal/vinesim), which shares this package's placement policy
// through internal/sched.
package vine

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
)

// Control-channel message. Exactly one pointer field is set, discriminated
// by Type. The framing is a 4-byte little-endian length, a 4-byte
// little-endian CRC-32C of the body, then the body: binary for dispatch and
// task_done, the two frames every task costs (wire.go), and JSON for every
// other type — debuggable and stdlib-only. A flipped bit anywhere in the
// body surfaces as a typed ErrCorruptFrame instead of whatever the decoder
// makes of it.
type message struct {
	Type string `json:"type"`

	Hello        *helloMsg         `json:"hello,omitempty"`
	Dispatch     *dispatchMsg      `json:"dispatch,omitempty"`
	TaskDone     *taskDoneMsg      `json:"task_done,omitempty"`
	PutURL       *putURLMsg        `json:"put_url,omitempty"`
	TransferDone *transferDoneMsg  `json:"transfer_done,omitempty"`
	Library      *libraryMsg       `json:"library,omitempty"`
	Unlink       *unlinkMsg        `json:"unlink,omitempty"`
	Evicted      *evictedMsg       `json:"evicted,omitempty"`
	InventoryAck *inventoryAckMsg  `json:"inventory_ack,omitempty"`
	Takeover     *takeoverMsg      `json:"takeover,omitempty"`
	Draining     *drainingMsg      `json:"draining,omitempty"`
	Lease        *leaseBatchMsg    `json:"lease,omitempty"`
	Report       *foremanReportMsg `json:"report,omitempty"`
}

// Message type tags.
const (
	msgHello        = "hello"
	msgDispatch     = "dispatch"
	msgTaskDone     = "task_done"
	msgPutURL       = "put_url"
	msgTransferDone = "transfer_done"
	msgLibrary      = "library"
	msgUnlink       = "unlink"
	msgEvicted      = "evicted"
	msgInventoryAck = "inventory_ack"
	msgKill         = "kill"
	msgTakeover     = "takeover"

	// Graceful drain. A preempted worker announces `draining` with its
	// grace window; the manager stops assigning it work, requeues its
	// staged tasks, offloads its sole-replica cache entries, and answers
	// `drain_done` (type-only) once nothing of value remains — the
	// worker's cue to exit cleanly instead of being torn down mid-use.
	msgDraining  = "draining"
	msgDrainDone = "drain_done"

	// Liveness probes. Type-only messages: the manager pings links that
	// have been quiet for a heartbeat interval, the worker answers with a
	// pong, and either side declares the peer lost after a timeout of
	// total silence — catching stalls TCP alone never reports.
	msgPing = "ping"
	msgPong = "pong"

	// Federation. A foreman registers like a worker (hello with
	// Foreman=true), then the root speaks leases downward and the foreman
	// speaks aggregated reports upward — both batched, so the root's
	// control-plane frame rate scales with shard count, not task count.
	msgLease  = "lease"
	msgReport = "report"
)

// helloMsg is the worker's registration. Inventory lists the cachenames the
// worker already holds — CRC-scrubbed survivors of a persistent cache on a
// fresh start, or the intact in-memory cache on a reconnect — so the manager
// re-learns replicas instead of re-staging them.
type helloMsg struct {
	Name         string           `json:"name"`
	Cores        int              `json:"cores"`
	Memory       int64            `json:"memory"` // bytes advertised; 0 = unreported
	TransferAddr string           `json:"transfer_addr"`
	DiskLimit    int64            `json:"disk_limit"` // bytes; 0 = unlimited
	Preemptible  bool             `json:"preemptible,omitempty"`
	Foreman      bool             `json:"foreman,omitempty"` // subordinate manager, not a worker
	Inventory    []inventoryEntry `json:"inventory,omitempty"`
}

// inventoryEntry names one surviving cache entry in a hello handshake.
// Addr is set only by foremen: the shard-local transfer address serving
// the entry, without which the root could not ticket it to other shards.
type inventoryEntry struct {
	CacheName string `json:"cachename"`
	Size      int64  `json:"size"`
	Addr      string `json:"addr,omitempty"`
}

// inventoryAckMsg is the manager's answer to a hello inventory: which
// entries it recognizes (and re-registered as replicas). Entries the
// manager does not know stay orphaned on the worker and age out under the
// worker's TTL GC instead of leaking disk forever.
type inventoryAckMsg struct {
	Known []string `json:"known,omitempty"`
}

// fileRefWire names one task input within the task sandbox. Path is set
// for an input the worker reads in place from shared storage
// (DeclareSharedFile): the worker checks that the path's stat identity
// still hashes to CacheName before and after the call.
type fileRefWire struct {
	Name      string `json:"name"`
	CacheName string `json:"cachename"`
	Path      string `json:"path,omitempty"`
}

// dispatchMsg carries one task or function invocation to a worker.
type dispatchMsg struct {
	TaskID  int           `json:"task_id"`
	Mode    string        `json:"mode"` // "task" or "function-call"
	Library string        `json:"library"`
	Func    string        `json:"func"`
	Args    []byte        `json:"args,omitempty"`
	Inputs  []fileRefWire `json:"inputs,omitempty"`
	Outputs []fileRefWire `json:"outputs,omitempty"`
	Cores   int           `json:"cores"`
	Memory  int64         `json:"memory,omitempty"`
}

// taskDoneMsg reports execution results. Output sizes let the manager track
// cache consumption without another round trip. Stale is the typed cause
// of a discarded result: the cachename of a shared input whose path was
// missing, or no longer matched its name, before or after the call.
type taskDoneMsg struct {
	TaskID      int              `json:"task_id"`
	OK          bool             `json:"ok"`
	Error       string           `json:"error,omitempty"`
	OutputSizes map[string]int64 `json:"output_sizes,omitempty"` // cachename → bytes
	ExecNanos   int64            `json:"exec_nanos"`
	SetupNanos  int64            `json:"setup_nanos"`
	Stale       string           `json:"stale,omitempty"`
}

// putURLMsg instructs a worker to fetch a file into its cache from a peer's
// (or the manager's) transfer server.
type putURLMsg struct {
	CacheName string `json:"cachename"`
	Addr      string `json:"addr"`
	Size      int64  `json:"size"`
}

// transferDoneMsg acknowledges a putURL. Corrupt distinguishes a payload
// whose CRC-32C failed verification from an ordinary transport failure:
// the manager quarantines the serving replica before retrying, instead of
// fetching the same bad bytes again.
type transferDoneMsg struct {
	CacheName string `json:"cachename"`
	OK        bool   `json:"ok"`
	Error     string `json:"error,omitempty"`
	Size      int64  `json:"size"`
	Corrupt   bool   `json:"corrupt,omitempty"`
}

// libraryMsg instantiates a library (serverless host environment) on the
// worker. The library code itself is registered in the worker binary; the
// manager controls which libraries exist and whether their imports are
// hoisted (§IV.B "Import Hoisting").
type libraryMsg struct {
	Name  string `json:"name"`
	Hoist bool   `json:"hoist"`
}

// unlinkMsg removes a file from the worker cache.
type unlinkMsg struct {
	CacheName string `json:"cachename"`
}

// takeoverMsg announces that a standby manager has assumed a dead
// primary's role. Sent to each worker as it (re)registers with the new
// incarnation; Epoch is the fencing token from the leadership lease, so a
// worker can tell incarnations apart.
type takeoverMsg struct {
	Holder string `json:"holder"`
	Epoch  uint64 `json:"epoch"`
}

// drainingMsg is a worker's preemption notice: it has GraceNanos of wall
// clock left before it disappears. In-flight tasks keep running (they may
// finish inside the window); nothing new is assigned.
type drainingMsg struct {
	GraceNanos int64 `json:"grace_nanos"`
}

// evictedMsg tells the manager a worker dropped a cached file to stay
// under its disk limit, so the replica table and scheduler index stop
// counting the copy and future placements re-stage it instead of
// assuming locality.
type evictedMsg struct {
	CacheName string `json:"cachename"`
	Size      int64  `json:"size"`
}

// ticketWire is a peer-transfer ticket the root attaches to a lease: one
// address known to serve the named input, so the shard pulls bytes
// worker-to-worker (or from the root's staging area) and the payload
// never crosses the root's NIC. The CRC ride-along is implicit — every
// transfer stream already carries CRC-32C end to end, so a ticket that
// serves bad bytes surfaces as Corrupt in the lease report and the root
// quarantines that replica before re-issuing.
type ticketWire struct {
	CacheName string `json:"cachename"`
	Addr      string `json:"addr"`
	Size      int64  `json:"size"`
}

// leaseEntryWire is one task leased to a foreman: the dispatch payload
// plus the peer-transfer tickets for inputs the shard does not yet hold.
type leaseEntryWire struct {
	TaskID  int           `json:"task_id"`
	Mode    string        `json:"mode"`
	Library string        `json:"library"`
	Func    string        `json:"func"`
	Args    []byte        `json:"args,omitempty"`
	Inputs  []fileRefWire `json:"inputs,omitempty"`
	Outputs []fileRefWire `json:"outputs,omitempty"`
	Cores   int           `json:"cores"`
	Memory  int64         `json:"memory,omitempty"`
	Tickets []ticketWire  `json:"tickets,omitempty"`
}

// leaseBatchMsg coalesces many leases into one frame. Batching is the
// federation's dispatch-throughput lever: one envelope amortized over up
// to defaultLeaseBatch tiny tasks.
type leaseBatchMsg struct {
	Leases []leaseEntryWire `json:"leases"`
}

// lostReplicaWire reports a replica the shard found missing or corrupt
// while staging a lease input, so the root can purge (and on corruption
// quarantine) the source it ticketed.
type lostReplicaWire struct {
	CacheName string `json:"cachename"`
	Addr      string `json:"addr"`
	Corrupt   bool   `json:"corrupt,omitempty"`
}

// leaseDoneWire is one finished lease inside a foreman report. OutputAddrs
// maps each produced cachename to the shard-local transfer address now
// serving it; InputAddrs does the same for ticketed inputs the shard
// pulled and now caches — both feed the root's cross-shard replica table
// so future tickets point into this shard.
type leaseDoneWire struct {
	TaskID      int               `json:"task_id"`
	OK          bool              `json:"ok"`
	Error       string            `json:"error,omitempty"`
	OutputSizes map[string]int64  `json:"output_sizes,omitempty"`
	OutputAddrs map[string]string `json:"output_addrs,omitempty"`
	InputAddrs  map[string]string `json:"input_addrs,omitempty"`
	InputSizes  map[string]int64  `json:"input_sizes,omitempty"`
	Lost        []lostReplicaWire `json:"lost,omitempty"`
	ExecNanos   int64             `json:"exec_nanos"`
	SetupNanos  int64             `json:"setup_nanos"`
}

// foremanReportMsg is the foreman's aggregated upward flow: every lease
// that finished since the last report, plus current backlog (tasks leased
// but not yet terminal) so the root's placement sees shard pressure.
type foremanReportMsg struct {
	Done    []leaseDoneWire `json:"done,omitempty"`
	Backlog int             `json:"backlog"`
}

const maxFrame = 64 << 20 // 64 MB control-message cap

// maxBatchBuf is the largest encode buffer a conn keeps between batches,
// so one large hello inventory does not pin its memory for the conn's life.
const maxBatchBuf = 1 << 20

// conn wraps a TCP connection with framed I/O and a non-blocking send
// queue. Sends never block the caller: a dedicated writer goroutine drains
// the queue, so manager and worker can both be mid-send without
// deadlocking. The writer takes the whole queue at each wake-up and sends
// it with one Write.
type conn struct {
	c       net.Conn
	r       *bufio.Reader
	mu      sync.Mutex
	queue   []*message
	cond    *sync.Cond
	closed  bool
	sendErr error
}

func newConn(c net.Conn) *conn {
	cc := &conn{c: c, r: bufio.NewReader(c)}
	cc.cond = sync.NewCond(&cc.mu)
	go cc.writeLoop()
	return cc
}

// send enqueues a message for the writer goroutine.
func (cc *conn) send(m *message) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.closed {
		return
	}
	cc.queue = append(cc.queue, m)
	cc.cond.Signal()
}

func (cc *conn) writeLoop() {
	var buf []byte
	var spare []*message // the previous batch's backing array, reused as the queue
	for {
		cc.mu.Lock()
		for len(cc.queue) == 0 && !cc.closed {
			cc.cond.Wait()
		}
		if cc.closed && len(cc.queue) == 0 {
			cc.mu.Unlock()
			return
		}
		batch := cc.queue
		cc.queue = spare
		cc.mu.Unlock()

		var err error
		buf = buf[:0]
		for _, m := range batch {
			if buf, err = appendFrame(buf, m); err != nil {
				break
			}
		}
		if len(buf) > 0 {
			if _, werr := cc.c.Write(buf); err == nil {
				err = werr
			}
		}
		clear(batch)
		spare = batch[:0]
		if cap(buf) > maxBatchBuf {
			buf = nil
		}
		if err != nil {
			cc.mu.Lock()
			cc.sendErr = err
			cc.closed = true
			cc.mu.Unlock()
			cc.c.Close()
			return
		}
	}
}

// recv blocks for the next message.
func (cc *conn) recv() (*message, error) {
	return readFrame(cc.r)
}

// close shuts the connection down; pending queued messages are dropped.
func (cc *conn) close() {
	cc.mu.Lock()
	cc.closed = true
	cc.queue = nil
	cc.cond.Signal()
	cc.mu.Unlock()
	cc.c.Close()
}

func writeFrame(w io.Writer, m *message) error {
	buf, err := appendFrame(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func readFrame(r io.Reader) (*message, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return nil, fmt.Errorf("vine: oversized frame (%d bytes)", n)
	}
	data, err := readBody(r, int(n))
	if err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(hdr[4:])
	if got := crc32.Checksum(data, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc32c %08x, want %08x over %d bytes", ErrCorruptFrame, got, want, n)
	}
	return decodeBody(data)
}

// frameChunk is the largest body readBody allocates before any of it has
// arrived.
const frameChunk = 64 << 10

// readBody reads an n-byte frame body. The length is an untrusted header
// field, so past frameChunk the buffer doubles only as bytes actually
// arrive: a forged length on a short stream costs what the stream sent,
// not maxFrame.
func readBody(r io.Reader, n int) ([]byte, error) {
	data := make([]byte, min(n, frameChunk))
	read := 0
	for {
		k, err := io.ReadFull(r, data[read:])
		read += k
		if err == io.EOF && read > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if read == n {
			return data, nil
		}
		data = append(data, make([]byte, min(n-read, read))...)
	}
}
