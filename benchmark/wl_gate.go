package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"hepvine/internal/gate"
	"hepvine/internal/vine"
)

// Arrival rates, total over both tenants. lo leaves the manager idle between
// requests; hi keeps it busy, so control-path cost shows in hi and not in lo.
const (
	gateRateLo = 200.0
	gateRateHi = 800.0
	// gateSenders bounds one tenant's concurrent HTTP requests (and so its
	// connections); a request that finds all of them busy waits, and the
	// wait counts, because latency runs from the due time.
	gateSenders = 4
)

var gateTenants = []string{"atlas", "cms"}

// arrival is one scheduled request.
type arrival struct {
	due    time.Duration // offset from the phase start
	tenant int
	n      int // index within the phase
}

// gateOpen is the open loop over HTTP: Poisson arrivals on schedules fixed by
// the seed, single-task requests of a 2 ms function from two tenants, first
// at gateRateLo then at gateRateHi. Every round draws its own schedule from
// the seeded stream, so a run's median is over schedules and one unlucky
// burst pattern does not set the tail for the whole run.
type gateOpen struct {
	phaseDur time.Duration
	rng      *rand.Rand
	nLo, nHi int
}

// poisson draws n arrivals with exponential gaps and stretches them to end
// at dur: a Poisson process conditioned on its count, so every schedule
// offers the same load. Each arrival goes to a tenant at random.
func poisson(rng *rand.Rand, n int, dur time.Duration) []arrival {
	out := make([]arrival, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64()
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), tenant: rng.Intn(len(gateTenants)), n: i}
	}
	t += rng.ExpFloat64()
	for i := range out {
		out[i].due = time.Duration(float64(out[i].due) / t * dur.Seconds())
	}
	return out
}

func (g *gateOpen) prepare(e *env) error {
	registerTickLib()
	g.phaseDur = time.Duration(e.scaled(700, 100)) * time.Millisecond
	g.rng = rand.New(rand.NewSource(e.seed))
	g.nLo = int(gateRateLo * g.phaseDur.Seconds())
	g.nHi = int(gateRateHi * g.phaseDur.Seconds())
	return nil
}

func (g *gateOpen) shape() map[string]any {
	return map[string]any{"loop": "open", "tenants": len(gateTenants), "rate_lo_per_s": gateRateLo, "rate_hi_per_s": gateRateHi,
		"phase_s": g.phaseDur.Seconds(), "requests_lo": g.nLo, "requests_hi": g.nHi,
		"senders_per_tenant": gateSenders, "workers": 2, "cores_per_worker": 2}
}

// sent is what the generator knows about one request after sending it.
type sent struct {
	due    time.Time
	lateMs float64 // how long after due the request left
	id     string
	tenant int
	err    error
}

// gateRig is a manager, two workers, a gate and its HTTP server.
type gateRig struct {
	c       *cluster
	g       *gate.Gate
	srv     *httptest.Server
	clients []*gate.Client
}

func startGate(dir string, traced bool) (*gateRig, time.Time, error) {
	rec, epoch := newRecorder(traced)
	c, err := startCluster(dir, 2, 2, rec, []vine.Option{
		vine.WithPeerTransfers(true), vine.WithLibrary(tickLib, true),
	})
	if err != nil {
		return nil, epoch, err
	}
	rig := &gateRig{c: c, g: gate.New(c.mgr, gate.Config{})}
	rig.srv = httptest.NewServer(rig.g.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * gateSenders}}
	for _, t := range gateTenants {
		cl := &gate.Client{Base: rig.srv.URL, Tenant: t, HTTP: hc}
		if _, err := cl.OpenSession("bench"); err != nil {
			rig.stop()
			return nil, epoch, err
		}
		rig.clients = append(rig.clients, cl)
	}
	// Open every sender's connection now: a client's TCP connects are its
	// set-up, not the latency of its first requests.
	errs := make(chan error, len(gateTenants)*gateSenders)
	for i := 0; i < cap(errs); i++ {
		go func(cl *gate.Client) {
			_, err := cl.SessionStatus("bench")
			errs <- err
		}(rig.clients[i%len(rig.clients)])
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			rig.stop()
			return nil, epoch, err
		}
	}
	return rig, epoch, nil
}

func (rig *gateRig) stop() {
	rig.srv.Close()
	rig.c.stop()
}

func spinRequest(label string) gate.SubmitRequest {
	return gate.SubmitRequest{Tasks: []gate.TaskSpec{{
		Label: label, Mode: string(vine.ModeFunctionCall), Library: tickLib, Func: "spin",
		Args: []byte(label),
	}}}
}

// fire sends one phase's schedule: one generator goroutine per tenant sleeps
// to each due time and hands the request to that tenant's senders.
func (rig *gateRig) fire(e *env, phase string, schedule []arrival, parent int64) []sent {
	out := make([]sent, len(schedule))
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for ti := range gateTenants {
		// Buffered to the phase's length: the generator never blocks on a
		// slow sender, it only falls behind its own clock.
		ch := make(chan arrival, len(schedule))
		for s := 0; s < gateSenders; s++ {
			wg.Add(1)
			go func(cl *gate.Client) {
				defer wg.Done()
				for a := range ch {
					due := start.Add(a.due)
					label := fmt.Sprintf("%s-%d", phase, a.n)
					sp := e.tr.begin("gate.Client.Submit", parent, label)
					now := time.Now()
					resp, err := cl.Submit("bench", spinRequest(label))
					sp.end()
					s := sent{due: due, lateMs: ms(int64(now.Sub(due))), tenant: a.tenant, err: err}
					if err == nil {
						s.id = resp.Tasks[0].ID
					}
					out[a.n] = s
				}
			}(rig.clients[ti])
		}
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			defer close(ch)
			for _, a := range schedule {
				if a.tenant != ti {
					continue
				}
				if d := time.Until(start.Add(a.due)); d > 0 {
					time.Sleep(d)
				}
				ch <- a
			}
		}(ti)
	}
	wg.Wait()
	return out
}

// waitTask polls the gate's Go API, not HTTP, until the task is terminal: the
// status reads are the benchmark's bookkeeping and should not load the
// surface under test.
func (rig *gateRig) waitTask(tenant int, id string) (gate.TaskStatus, error) {
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(200 * time.Microsecond) {
		st, err := rig.g.TaskStatus(gateTenants[tenant], "bench", id)
		if err != nil || st.State == "done" || st.State == "failed" {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("gate task %s still %s after a minute", id, st.State)
		}
	}
}

// settle waits until every admitted task of the phase is terminal, then
// reads each one's first-dispatch stamp. A refused request or a task that
// did not reach "done" has no latency and counts as failed.
func (rig *gateRig) settle(reqs []sent) (dispatchMs, lateMs []float64, failed, rejected int) {
	for _, s := range reqs {
		lateMs = append(lateMs, s.lateMs)
		if s.err != nil {
			failed++
			if se, ok := s.err.(*gate.StatusError); ok && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
				rejected++
			}
			continue
		}
		st, err := rig.waitTask(s.tenant, s.id)
		if err != nil || st.State != "done" || st.DispatchUnixNanos == 0 {
			failed++
			continue
		}
		dispatchMs = append(dispatchMs, ms(st.DispatchUnixNanos-s.due.UnixNano()))
	}
	return dispatchMs, lateMs, failed, rejected
}

func (g *gateOpen) run(e *env, traced bool) (round, error) {
	var r round
	dir, err := e.freshDir("gate")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	rig, recEpoch, err := startGate(dir, traced)
	if err != nil {
		return r, err
	}
	defer rig.stop()

	loSched, hiSched := poisson(g.rng, g.nLo, g.phaseDur), poisson(g.rng, g.nHi, g.phaseDur)
	root := e.tr.begin("round", 0, "gate-open")
	e.tr.round.Store(root.id)
	// Only the firing is timed: settle is the benchmark polling for the
	// stragglers and reading every request's stamps back.
	m := startMeter(traced)
	lo := rig.fire(e, "lo", loSched, root.id)
	m.pause()
	loMs, loLate, loFailed, loRej := rig.settle(lo)
	m.resume()
	hi := rig.fire(e, "hi", hiSched, root.id)
	m.pause()
	hiMs, hiLate, hiFailed, hiRej := rig.settle(hi)
	m.resume()
	m.stop(&r)
	root.end()

	r.tasks = len(loMs) + len(hiMs)
	r.work = float64(r.tasks)
	r.latencyMs = hiMs
	r.heapMB = retainedHeapMB()
	r.attempted = len(lo) + len(hi)
	r.fail("lo: refused, failed or never dispatched", loFailed)
	r.fail("hi: refused, failed or never dispatched", hiFailed)

	if traced {
		r.layer = map[string]float64{}
		foldStages(rig.c.mgr.Recorder().Events(), recEpoch, nil, r.layer)
		foldControl(&r, 0, rig.c.mgr.Stats(), r.layer)
		r.layer["gate.rejected"] = float64(loRej + hiRej)
		r.layer["gate.generator_late_ms_p99"] = percentile(append(loLate, hiLate...), 0.99)
		r.layer["gate.dispatch_p50_ms_lo"] = percentile(loMs, 0.50)
		r.layer["gate.dispatch_p99_ms_lo"] = percentile(loMs, 0.99)
	}
	return r, nil
}

// layers times admission alone (Gate.Submit called directly) and one
// closed-loop HTTP client's Submit round trip, on a gate of the same shape.
func (g *gateOpen) layers(e *env, out layerValues) error {
	dir, err := e.freshDir("gate-layers")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rig, _, err := startGate(dir, false)
	if err != nil {
		return err
	}
	defer rig.stop()
	n := e.scaled(400, 40)
	var ids []string
	t0 := time.Now()
	for i := 0; i < n; i++ {
		resp, err := rig.g.Submit(gateTenants[0], "bench", spinRequest(fmt.Sprintf("admit-%d", i)))
		if err != nil {
			return err
		}
		ids = append(ids, resp.Tasks[0].ID)
	}
	out.add("gate.admit_us", ratio(float64(time.Since(t0).Microseconds()), float64(n)))
	t0 = time.Now()
	for i := 0; i < n; i++ {
		resp, err := rig.clients[1].Submit("bench", spinRequest(fmt.Sprintf("http-%d", i)))
		if err != nil {
			return err
		}
		ids = append(ids, resp.Tasks[0].ID)
	}
	out.add("gate.http_submit_rtt_us", ratio(float64(time.Since(t0).Microseconds()), float64(n)))
	// Let the cluster finish before it is torn down.
	for i, id := range ids {
		if _, err := rig.waitTask(i/n, id); err != nil {
			return err
		}
	}
	return nil
}
