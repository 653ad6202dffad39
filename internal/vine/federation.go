package vine

// Federation: the root manager speaks the ordinary vine protocol downward
// to subordinate managers ("foremen"). A foreman registers over the same
// control channel as a worker (hello with Foreman=true) and is scheduled
// like one — the root's policy picks a shard, reserving shard capacity
// exactly as it reserves worker cores — but instead of dispatch+staging
// the root sends batched task *leases* and receives aggregated *reports*.
//
// Data never funnels through the root: when a lease's input lives in
// another shard (or on a flat worker), the root brokers a peer-transfer
// ticket — the source address plus size — and the destination shard pulls
// the bytes worker-to-worker over the existing CRC-checked transfer path.
// The receiving side of a ticket is an *external replica* in the foreman's
// local manager: an address outside its own cluster that serves the file.
//
// The recovery ladder climbs across the shard boundary in both directions:
// a shard that pulls bytes failing their checksum quarantines the external
// address locally, and when its sources are exhausted the lease fails fast
// with a Lost report; the root purges (and on corruption quarantines) the
// ticketed replica and re-runs the producer through the ordinary lineage
// rollback. A dead foreman is just a lost worker to the root: its leases
// requeue, its shard replicas vanish from the table, and the journal's
// lease records replay as re-runnable definitions after a root restart.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hepvine/internal/journal"
	"hepvine/internal/obs"
)

// ---- root side ----

// foremenActiveLocked counts live registered foremen (requires m.mu).
func (m *Manager) foremenActiveLocked() int {
	n := 0
	for _, w := range m.workers {
		if w.foreman && w.alive {
			n++
		}
	}
	return n
}

// replicaAddrLocked reports the transfer address serving name from w: a
// flat worker serves everything it caches from its own transfer server; a
// foreman serves each file from whichever shard-local address it reported.
// Empty means the replica is not addressable (and must not be ticketed).
func (m *Manager) replicaAddrLocked(w *workerState, name CacheName) string {
	if w.foreman {
		return w.shardAddr[name]
	}
	return w.transferAddr
}

// ticketAddrLocked picks the source address for a peer-transfer ticket:
// the lowest-id live replica outside the destination shard, falling back
// to the root's own store. Empty means no live source exists anywhere.
func (m *Manager) ticketAddrLocked(name CacheName, dest int) (string, int64) {
	fs := m.files[name]
	if fs == nil {
		return "", 0
	}
	size := m.reps.Size(string(name))
	for _, wid := range m.reps.Holders(string(name)) {
		if wid == dest {
			continue
		}
		if w := m.workers[wid]; w != nil && w.alive {
			if a := m.replicaAddrLocked(w, name); a != "" {
				return a, size
			}
		}
	}
	if fs.onManager {
		return m.ts.Addr(), size
	}
	return "", 0
}

// leaseLocked assigns rec to the foreman w: it builds peer-transfer
// tickets for every input the shard lacks, journals the lease (so a
// resumed root re-runs it if the foreman dies with it in flight), and
// buffers the lease for the batched flush at the end of the scheduling
// pass. If any input has no live source anywhere the assignment unwinds
// into the lineage ladder instead, exactly like a flat staging failure.
func (m *Manager) leaseLocked(rec *taskRecord, w *workerState) {
	if m.fenced {
		// Lease lost between ready and assignment: stay parked; the standby
		// that owns the leadership lease runs it from a resubmission.
		return
	}
	rootAddr := m.ts.Addr()
	var tickets []ticketWire
	for _, in := range rec.spec.Inputs {
		if m.reps.Holds(string(in.CacheName), w.id) {
			continue // the shard already holds it
		}
		addr, size := m.ticketAddrLocked(in.CacheName, w.id)
		if addr == "" {
			m.releaseWorkerLocked(rec)
			m.setTaskState(rec, TaskWaiting)
			m.reviveProducersLocked(rec)
			return
		}
		tickets = append(tickets, ticketWire{CacheName: string(in.CacheName), Addr: addr, Size: size})
	}
	m.observeTakeoverLocked()
	m.setTaskState(rec, TaskRunning)
	rec.handle.mu.Lock()
	if rec.handle.firstDispatch.IsZero() {
		rec.handle.firstDispatch = time.Now()
	}
	rec.handle.mu.Unlock()
	if d := m.deadlineFor(rec); d > 0 {
		rec.deadlineAt = time.Now().Add(d)
	} else {
		rec.deadlineAt = time.Time{}
	}
	m.rec.Emit(obs.Event{Type: obs.EvTaskStart, Task: rec.label(), Worker: w.name, Attempt: rec.retries})
	if m.jr != nil {
		m.journalLocked(&journal.Record{Kind: journal.KindLease, TaskID: rec.id, Worker: w.name})
	}
	for _, tk := range tickets {
		if tk.Addr == rootAddr {
			// Root-store staging: the one flow that still touches the
			// root's NIC (dataset files declared at the root).
			m.met.managerTransfers.Inc()
			m.met.managerBytes.Add(tk.Size)
			m.rec.Emit(obs.Event{Type: obs.EvTransferStart, Src: "manager",
				Dst: w.name, Bytes: tk.Size, Detail: tk.CacheName})
		} else {
			m.met.crossShard.Inc()
			m.met.crossShardBytes.Add(tk.Size)
			m.met.peerTransfers.Inc()
			m.met.peerBytes.Add(tk.Size)
			// Both events fire: transfer_start keeps the trace↔metrics
			// byte ledger exact on every deployment shape; the cross-shard
			// event carries the federation-specific detail.
			m.rec.Emit(obs.Event{Type: obs.EvTransferStart, Src: tk.Addr,
				Dst: w.name, Bytes: tk.Size, Detail: tk.CacheName})
			m.rec.Emit(obs.Event{Type: obs.EvCrossShardTransfer, Task: rec.label(),
				Worker: w.name, Src: tk.Addr, Bytes: tk.Size, Detail: tk.CacheName})
		}
	}
	e := leaseEntryWire{
		TaskID:  rec.id,
		Mode:    string(rec.spec.Mode),
		Library: rec.spec.Library,
		Func:    rec.spec.Func,
		Args:    rec.spec.Args,
		Cores:   rec.spec.Cores,
		Memory:  rec.spec.Memory,
		Tickets: tickets,
	}
	for _, in := range rec.spec.Inputs {
		e.Inputs = append(e.Inputs, fileRefWire{Name: in.Name, CacheName: string(in.CacheName)})
	}
	for _, out := range rec.spec.Outputs {
		e.Outputs = append(e.Outputs, fileRefWire{Name: out, CacheName: string(rec.handle.outputs[out])})
	}
	w.leaseBuf = append(w.leaseBuf, e)
}

// leaseFlushDelay is the microbatch window: a partial lease buffer waits
// this long for company before it is shipped, so a tight Submit loop —
// each call its own scheduling pass — still coalesces into full frames.
const leaseFlushDelay = time.Millisecond

// flushLeasesLocked ships every full lease frame immediately and arms a
// one-shot microbatch timer for whatever remains, so a burst of ready
// tasks costs the root frames proportional to shard count and batch
// size, not task count.
func (m *Manager) flushLeasesLocked() {
	pending := false
	for _, w := range m.workers {
		if !w.foreman || !w.alive || len(w.leaseBuf) == 0 {
			continue
		}
		for len(w.leaseBuf) >= defaultLeaseBatch {
			batch := w.leaseBuf[:defaultLeaseBatch:defaultLeaseBatch]
			w.leaseBuf = w.leaseBuf[defaultLeaseBatch:]
			m.sendLeaseBatchLocked(w, batch)
		}
		if len(w.leaseBuf) > 0 {
			pending = true
		}
	}
	if pending && !m.leaseFlushArmed {
		m.leaseFlushArmed = true
		time.AfterFunc(leaseFlushDelay, m.flushLeaseRemainder)
	}
}

// flushLeaseRemainder is the microbatch timer body: ship every partial
// lease buffer that is still waiting.
func (m *Manager) flushLeaseRemainder() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.leaseFlushArmed = false
	if m.stopped {
		return
	}
	for _, w := range m.workers {
		if !w.foreman || !w.alive || len(w.leaseBuf) == 0 {
			continue
		}
		buf := w.leaseBuf
		w.leaseBuf = nil
		for start := 0; start < len(buf); start += defaultLeaseBatch {
			end := start + defaultLeaseBatch
			if end > len(buf) {
				end = len(buf)
			}
			m.sendLeaseBatchLocked(w, buf[start:end])
		}
	}
}

func (m *Manager) sendLeaseBatchLocked(w *workerState, batch []leaseEntryWire) {
	w.conn.send(&message{Type: msgLease, Lease: &leaseBatchMsg{Leases: batch}})
	m.met.leaseBatches.Inc()
	m.met.leaseGrants.Add(int64(len(batch)))
	m.rec.Emit(obs.Event{Type: obs.EvLeaseGrant, Worker: w.name, Attempt: len(batch)})
}

// onForemanReport folds one aggregated shard report: lost/corrupt source
// replicas are purged first (so a failed lease's retry never re-tickets
// them), each finished lease flows through the ordinary completion path,
// and the shard's replica addresses — outputs it produced, ticketed
// inputs it pulled and now caches — feed the cross-shard replica table.
func (m *Manager) onForemanReport(wid int, rep *foremanReportMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[wid]
	if w == nil || !w.foreman {
		return
	}
	m.met.foremanReports.Inc()
	w.backlog = rep.Backlog
	for i := range rep.Done {
		d := &rep.Done[i]
		for _, lr := range d.Lost {
			m.purgeShardReplicaLocked(CacheName(lr.CacheName), lr.Addr, lr.Corrupt)
		}
		sizes := d.OutputSizes
		if d.OK {
			// Only outputs with a surviving shard address become replicas;
			// an addressless entry would satisfy hasSource while being
			// unticketable.
			sizes = make(map[string]int64, len(d.OutputSizes))
			for cn, size := range d.OutputSizes {
				if d.OutputAddrs[cn] != "" {
					sizes[cn] = size
				}
			}
		}
		m.onTaskDoneLocked(wid, &taskDoneMsg{
			TaskID: d.TaskID, OK: d.OK, Error: d.Error, OutputSizes: sizes,
			ExecNanos: d.ExecNanos, SetupNanos: d.SetupNanos,
		})
		if !w.alive {
			return // the completion handler may have torn the foreman down
		}
		for cn, addr := range d.OutputAddrs {
			m.recordShardReplicaLocked(w, CacheName(cn), d.OutputSizes[cn], addr)
		}
		for cn, addr := range d.InputAddrs {
			m.recordShardReplicaLocked(w, CacheName(cn), d.InputSizes[cn], addr)
		}
	}
	m.promoteWaitersLocked()
	m.scheduleLocked()
}

// recordShardReplicaLocked registers addr as the shard-local source for
// name under foreman w, updating the replica table and the ticket address
// map (requires m.mu). Idempotent.
func (m *Manager) recordShardReplicaLocked(w *workerState, name CacheName, size int64, addr string) {
	if addr == "" || !w.alive || !w.foreman || m.files[name] == nil {
		return
	}
	if size > 0 && m.reps.Size(string(name)) == 0 {
		m.reps.SetSize(string(name), size)
	}
	m.reps.Add(string(name), w.id)
	w.shardAddr[name] = addr
}

// purgeShardReplicaLocked drops the replica of name served at addr after
// a shard reported it lost (source died) or corrupt (bytes failed their
// checksum). Corruption additionally quarantines: the holder is told to
// unlink so the bad bytes cannot resurface as a future ticket. The root's
// own store is left alone — it re-reads from disk or memory on the next
// fetch, so an in-flight corruption there clears itself on retry.
func (m *Manager) purgeShardReplicaLocked(name CacheName, addr string, corrupt bool) {
	if addr == "" || addr == m.ts.Addr() {
		return
	}
	for _, wid := range m.reps.Holders(string(name)) {
		hw := m.workers[wid]
		if hw == nil || m.replicaAddrLocked(hw, name) != addr {
			continue
		}
		m.reps.Remove(string(name), wid)
		if hw.foreman {
			delete(hw.shardAddr, name)
		}
		if corrupt {
			m.met.corruptTransfers.Inc()
			m.rec.Emit(obs.Event{Type: obs.EvFileCorrupt, Src: hw.name,
				Detail: string(name) + ": cross-shard transfer failed checksum"})
			if hw.alive {
				hw.conn.send(&message{Type: msgUnlink, Unlink: &unlinkMsg{CacheName: string(name)}})
			}
		}
	}
}

// ShardInfo is an operational snapshot of one registered foreman.
type ShardInfo struct {
	Name        string
	Alive       bool
	Cores       int
	UsedCores   int
	Backlog     int // shard-reported leased-but-not-terminal count
	CachedFiles int // files the root can ticket out of this shard
	TasksDone   int // completions accepted from this shard
}

// FederationStats snapshots the root's view of its shard tree.
type FederationStats struct {
	Foremen         int // live foremen
	LeaseGrants     int
	LeaseBatches    int
	CrossShard      int // peer-transfer tickets brokered across shards
	CrossShardBytes int64
	Shards          []ShardInfo // every foreman ever registered, by name
}

// FederationStats reports lease/ticket counters and per-shard state.
func (m *Manager) FederationStats() FederationStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := FederationStats{
		LeaseGrants:     int(m.met.leaseGrants.Value()),
		LeaseBatches:    int(m.met.leaseBatches.Value()),
		CrossShard:      int(m.met.crossShard.Value()),
		CrossShardBytes: m.met.crossShardBytes.Value(),
	}
	for _, w := range m.workers {
		if !w.foreman {
			continue
		}
		if w.alive {
			st.Foremen++
		}
		st.Shards = append(st.Shards, ShardInfo{
			Name:        w.name,
			Alive:       w.alive,
			Cores:       w.cores,
			UsedCores:   w.usedCores,
			Backlog:     w.backlog,
			CachedFiles: m.reps.Count(w.id),
			TasksDone:   w.doneCount,
		})
	}
	sort.Slice(st.Shards, func(i, j int) bool { return st.Shards[i].Name < st.Shards[j].Name })
	return st
}

// ---- shard side (a foreman's local manager) ----

// AddExternalReplica registers addr — an address outside this manager's
// own cluster, i.e. the payload of a peer-transfer ticket — as a source
// for name. The file becomes stageable exactly like a declared one: the
// transfer pump pulls it straight from the external address, rotating
// across registered addresses on retries and quarantining any that serve
// bytes failing their checksum.
func (m *Manager) AddExternalReplica(name CacheName, size int64, addr string) {
	if addr == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := m.files[name]
	if fs == nil {
		fs = &fileState{producer: -1}
		m.files[name] = fs
	}
	if size > 0 && m.reps.Size(string(name)) == 0 {
		m.reps.SetSize(string(name), size)
	}
	fs.wasExt = true
	known := false
	for _, a := range fs.ext {
		if a == addr {
			known = true
			break
		}
	}
	for _, a := range fs.extBad {
		if a == addr {
			known = true // quarantined addresses stay dead
			break
		}
	}
	if !known {
		fs.ext = append(fs.ext, addr)
	}
	m.promoteWaitersLocked()
	m.scheduleLocked()
	m.notifyLocked()
}

// HasSource reports whether the manager currently knows a live source for
// name: its own store, a live worker replica, or an external address.
func (m *Manager) HasSource(name CacheName) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hasSourceLocked(name)
}

// ExternalQuarantined lists the external addresses of name quarantined
// after serving corrupt bytes — what a foreman reports upward so the root
// quarantines the same replica cluster-wide.
func (m *Manager) ExternalQuarantined(name CacheName) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := m.files[name]
	if fs == nil || len(fs.extBad) == 0 {
		return nil
	}
	return append([]string(nil), fs.extBad...)
}

// ReplicaInfo reports an address inside this manager's own cluster
// currently serving name (lowest-id live worker replica, else the
// manager's own store) and the file's size. ok is false when the cluster
// cannot serve the file itself — external sources don't count.
func (m *Manager) ReplicaInfo(name CacheName) (addr string, size int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fs := m.files[name]
	if fs == nil {
		return "", 0, false
	}
	size = m.reps.Size(string(name))
	for _, wid := range m.reps.Holders(string(name)) {
		if w := m.workers[wid]; w != nil && w.alive && !w.foreman && w.transferAddr != "" {
			return w.transferAddr, size, true
		}
	}
	if fs.onManager {
		return m.ts.Addr(), size, true
	}
	return "", size, false
}

// ReplicaInventory snapshots every file this cluster can serve itself,
// with a serving address — the inventory a reconnecting foreman re-offers
// the root so its shard's replicas are re-learned, not re-staged.
func (m *Manager) ReplicaInventory() []ForemanInventory {
	m.mu.Lock()
	names := make([]CacheName, 0, len(m.files))
	for cn := range m.files {
		names = append(names, cn)
	}
	m.mu.Unlock()
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	var out []ForemanInventory
	for _, cn := range names {
		if addr, size, ok := m.ReplicaInfo(cn); ok {
			out = append(out, ForemanInventory{CacheName: cn, Size: size, Addr: addr})
		}
	}
	return out
}

// extAddrLocked rotates across a file's external addresses by attempt
// count, so a staging retry tries a different source shard.
func (m *Manager) extAddrLocked(fs *fileState, attempts int) string {
	if len(fs.ext) == 0 {
		return ""
	}
	return fs.ext[attempts%len(fs.ext)]
}

// quarantineExternalLocked moves an external address that served corrupt
// bytes to the quarantine list so it is never retried or re-registered.
func (m *Manager) quarantineExternalLocked(name CacheName, addr string) {
	fs := m.files[name]
	if fs == nil {
		return
	}
	for i, a := range fs.ext {
		if a == addr {
			fs.ext = append(fs.ext[:i], fs.ext[i+1:]...)
			fs.extBad = append(fs.extBad, addr)
			return
		}
	}
}

// ---- the uplink (foreman → root control channel) ----

// ForemanInventory names one shard replica in a foreman's registration:
// the cachename, its size, and the shard-local address serving it.
type ForemanInventory struct {
	CacheName CacheName
	Size      int64
	Addr      string
}

// LeaseTicket is the foreman-side view of a peer-transfer ticket.
type LeaseTicket struct {
	CacheName CacheName
	Addr      string
	Size      int64
}

// LeasedTask is one task leased to this foreman: the reconstructed spec
// (content addressing guarantees the shard derives the same output
// cachenames the root assigned), the root's expected output cachenames
// for verification, and the tickets for inputs the shard must pull.
type LeasedTask struct {
	TaskID  int
	Task    Task
	Outputs map[string]CacheName
	Tickets []LeaseTicket
}

// LostReplica reports a ticketed source the shard found dead or corrupt.
type LostReplica struct {
	CacheName string
	Addr      string
	Corrupt   bool
}

// LeaseResult is one finished lease, reported upward in the next batch.
type LeaseResult struct {
	TaskID      int
	OK          bool
	Err         string
	OutputSizes map[string]int64
	OutputAddrs map[string]string
	InputSizes  map[string]int64
	InputAddrs  map[string]string
	Lost        []LostReplica
	ExecNanos   int64
	SetupNanos  int64
}

// ForemanHello describes the shard to the root: aggregate capacity, not a
// single node's.
type ForemanHello struct {
	Name   string
	Cores  int
	Memory int64
}

// ForemanCallbacks are the link's upcalls. OnLease delivers each decoded
// lease batch; OnUnlink mirrors cluster-wide unlinks into the shard;
// OnKill fires when the root shuts the link down deliberately. Inventory,
// when set, is called before every (re)registration to snapshot the
// shard's current replicas.
type ForemanCallbacks struct {
	OnLease   func([]LeasedTask)
	OnUnlink  func(CacheName)
	OnKill    func()
	Inventory func() []ForemanInventory
}

// ForemanLink is a foreman's control channel to the root manager. It
// registers with Foreman=true, decodes lease batches into upcalls, ships
// aggregated reports, and redials through the root address list (primary
// plus WithManagers fallbacks) on connection loss — re-offering the
// shard's replica inventory so a root failover re-learns the shard.
type ForemanLink struct {
	name  string
	cores int
	mem   int64
	nc    netConfig
	rec   *obs.Recorder
	cb    ForemanCallbacks
	label string

	mu                sync.Mutex
	conn              *conn
	addrs             []string
	addrIdx           int
	stopped           bool
	redialC           chan struct{}
	reconnectAttempts int
	reconnectBackoff  time.Duration
	doneC             chan struct{}
}

// DialForeman connects a foreman's uplink to the root at addr and
// registers the shard. Options follow the worker's vocabulary:
// WithManagers adds fallback root addresses, WithReconnect sets the
// redial budget, WithRecorder attaches tracing.
func DialForeman(addr string, h ForemanHello, cb ForemanCallbacks, options ...Option) (*ForemanLink, error) {
	c := buildConfig(options)
	backoff := c.wrk.ReconnectBackoff
	if backoff <= 0 {
		backoff = defaultReconnectBackoff
	}
	addrs := []string{addr}
	for _, a := range c.wrk.Managers {
		dup := a == ""
		for _, have := range addrs {
			if have == a {
				dup = true
				break
			}
		}
		if !dup {
			addrs = append(addrs, a)
		}
	}
	if h.Name == "" {
		h.Name = "foreman"
	}
	l := &ForemanLink{
		name:              h.Name,
		cores:             h.Cores,
		mem:               h.Memory,
		nc:                c.netConfig(),
		rec:               c.rec,
		cb:                cb,
		label:             h.Name,
		addrs:             addrs,
		reconnectAttempts: c.wrk.ReconnectAttempts,
		reconnectBackoff:  backoff,
		doneC:             make(chan struct{}),
	}
	var cc *conn
	var dialErr error
	for i, a := range addrs {
		raw, err := l.nc.dial(a, l.label+"/uplink")
		if err == nil {
			cc = newConn(raw)
			l.addrIdx = i
			break
		}
		dialErr = err
	}
	if cc == nil {
		return nil, fmt.Errorf("vine: foreman connecting to root: %w", dialErr)
	}
	l.conn = cc
	cc.send(l.helloMsg())
	go l.readLoop(cc)
	return l, nil
}

// helloMsg builds the registration frame, refreshing the inventory.
func (l *ForemanLink) helloMsg() *message {
	var inv []inventoryEntry
	if l.cb.Inventory != nil {
		for _, e := range l.cb.Inventory() {
			inv = append(inv, inventoryEntry{CacheName: string(e.CacheName), Size: e.Size, Addr: e.Addr})
		}
	}
	return &message{Type: msgHello, Hello: &helloMsg{
		Name:      l.name,
		Cores:     l.cores,
		Memory:    l.mem,
		Foreman:   true,
		Inventory: inv,
	}}
}

// Report ships finished leases and the current backlog to the root.
// Sends on a dead connection are dropped; the redialed registration
// re-offers their output replicas through the inventory instead.
func (l *ForemanLink) Report(done []LeaseResult, backlog int) {
	rep := &foremanReportMsg{Backlog: backlog}
	for _, r := range done {
		d := leaseDoneWire{
			TaskID: r.TaskID, OK: r.OK, Error: r.Err,
			OutputSizes: r.OutputSizes, OutputAddrs: r.OutputAddrs,
			InputSizes: r.InputSizes, InputAddrs: r.InputAddrs,
			ExecNanos: r.ExecNanos, SetupNanos: r.SetupNanos,
		}
		for _, lr := range r.Lost {
			d.Lost = append(d.Lost, lostReplicaWire(lr))
		}
		rep.Done = append(rep.Done, d)
	}
	l.mu.Lock()
	cc := l.conn
	stopped := l.stopped
	l.mu.Unlock()
	if !stopped && cc != nil {
		cc.send(&message{Type: msgReport, Report: rep})
	}
}

// Close tears the uplink down without notifying the root: from the root's
// side this is a foreman death, which is the point — Crash paths reuse it.
func (l *ForemanLink) Close() {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.stopped = true
	cc := l.conn
	close(l.doneC)
	l.mu.Unlock()
	if cc != nil {
		cc.close()
	}
}

func (l *ForemanLink) readLoop(cc *conn) {
	for {
		msg, err := cc.recv()
		if err != nil {
			if l.reconnect(cc) {
				l.mu.Lock()
				cc = l.conn
				l.mu.Unlock()
				continue
			}
			return
		}
		switch msg.Type {
		case msgLease:
			if msg.Lease != nil && l.cb.OnLease != nil {
				l.cb.OnLease(decodeLeases(msg.Lease.Leases))
			}
		case msgUnlink:
			if msg.Unlink != nil && l.cb.OnUnlink != nil {
				l.cb.OnUnlink(CacheName(msg.Unlink.CacheName))
			}
		case msgPing:
			cc.send(&message{Type: msgPong})
		case msgKill:
			if l.cb.OnKill != nil {
				l.cb.OnKill()
			}
			l.Close()
			return
		}
	}
}

// reconnect redials the root address list after old died, single-flight,
// mirroring the worker's redial discipline: cycle from the last address
// known good, back off between attempts, re-register with a fresh
// inventory on success.
func (l *ForemanLink) reconnect(old *conn) bool {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return false
	}
	if l.conn != old {
		l.mu.Unlock()
		return true
	}
	if l.reconnectAttempts <= 0 {
		l.mu.Unlock()
		return false
	}
	if c := l.redialC; c != nil {
		l.mu.Unlock()
		<-c
		l.mu.Lock()
		ok := !l.stopped && l.conn != old
		l.mu.Unlock()
		return ok
	}
	done := make(chan struct{})
	l.redialC = done
	attempts, backoff := l.reconnectAttempts, l.reconnectBackoff
	addrs, start := l.addrs, l.addrIdx
	l.mu.Unlock()

	old.close()
	var nc *conn
	dialed := -1
	for i := 1; i <= attempts && nc == nil; i++ {
		t := time.NewTimer(backoff)
		select {
		case <-l.doneC:
		case <-t.C:
		}
		t.Stop()
		select {
		case <-l.doneC:
			// Closed while waiting; give up without dialing.
		default:
			addr := addrs[(start+i-1)%len(addrs)]
			raw, err := l.nc.dial(addr, l.label+"/uplink")
			if err == nil {
				nc = newConn(raw)
				dialed = (start + i - 1) % len(addrs)
			} else {
				l.rec.Emit(obs.Event{Type: obs.EvNetRetry, Worker: l.name, Attempt: i,
					Dur: backoff, Detail: "root redial " + addr + ": " + err.Error()})
			}
		}
	}

	l.mu.Lock()
	defer func() {
		l.redialC = nil
		close(done)
		l.mu.Unlock()
	}()
	if l.stopped || nc == nil {
		if nc != nil {
			nc.close()
		}
		return false
	}
	l.conn = nc
	l.addrIdx = dialed
	l.rec.Emit(obs.Event{Type: obs.EvWorkerJoin, Worker: l.name, Detail: "foreman uplink reconnected"})
	nc.send(l.helloMsg())
	return true
}

// decodeLeases reconstructs task specs from the wire. The rebuilt spec
// hashes to the same definition as the root's, so the shard's local
// manager derives identical content-addressed output cachenames — the
// invariant that makes cross-shard lineage recovery bit-identical.
func decodeLeases(wire []leaseEntryWire) []LeasedTask {
	out := make([]LeasedTask, 0, len(wire))
	for _, e := range wire {
		t := Task{
			Mode:    TaskMode(e.Mode),
			Library: e.Library,
			Func:    e.Func,
			Args:    e.Args,
			Cores:   e.Cores,
			Memory:  e.Memory,
		}
		for _, in := range e.Inputs {
			t.Inputs = append(t.Inputs, FileRef{Name: in.Name, CacheName: CacheName(in.CacheName)})
		}
		lt := LeasedTask{TaskID: e.TaskID, Task: t, Outputs: make(map[string]CacheName, len(e.Outputs))}
		for _, o := range e.Outputs {
			t.Outputs = append(t.Outputs, o.Name)
			lt.Outputs[o.Name] = CacheName(o.CacheName)
		}
		lt.Task = t
		for _, tk := range e.Tickets {
			lt.Tickets = append(lt.Tickets, LeaseTicket{CacheName: CacheName(tk.CacheName), Addr: tk.Addr, Size: tk.Size})
		}
		out = append(out, lt)
	}
	return out
}
