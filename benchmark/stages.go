package main

import (
	"strconv"
	"time"

	"hepvine/internal/obs"
	"hepvine/internal/vine"
)

// foldStages turns one traced round's manager event stream into the per-task
// stage latencies: queue (submit → task_dispatch), staging (task_dispatch →
// task_start), exec (task_start → task_done as the manager sees it, so the
// worker round trip is inside) and collect (task_done → the client observing
// Done). epoch is the wall-clock instant the recorder was made; doneAt may be
// nil when the workload has no per-task client observation.
func foldStages(events []obs.Event, epoch time.Time, doneAt map[int]time.Time, out map[string]float64) {
	type marks struct{ submit, dispatch, start, done time.Duration }
	tasks := map[string]*marks{}
	get := func(id string) *marks {
		m := tasks[id]
		if m == nil {
			m = &marks{submit: -1, dispatch: -1, start: -1, done: -1}
			tasks[id] = m
		}
		return m
	}
	for _, ev := range events {
		if ev.Task == "" {
			continue
		}
		// First occurrence wins: a retry's second dispatch is not the
		// queue wait the client saw.
		switch ev.Type {
		case obs.EvTaskSubmit:
			if m := get(ev.Task); m.submit < 0 {
				m.submit = ev.T
			}
		case obs.EvTaskDispatch:
			if m := get(ev.Task); m.dispatch < 0 {
				m.dispatch = ev.T
			}
		case obs.EvTaskStart:
			if m := get(ev.Task); m.start < 0 {
				m.start = ev.T
			}
		case obs.EvTaskDone:
			if m := get(ev.Task); m.done < 0 {
				m.done = ev.T
			}
		}
	}
	var queue, staging, exec, collect []float64
	for id, m := range tasks {
		if m.submit < 0 || m.dispatch < 0 || m.start < 0 || m.done < 0 {
			continue
		}
		queue = append(queue, ms(int64(m.dispatch-m.submit)))
		staging = append(staging, ms(int64(m.start-m.dispatch)))
		exec = append(exec, ms(int64(m.done-m.start)))
		if n, err := strconv.Atoi(id); err == nil {
			if at, ok := doneAt[n]; ok {
				collect = append(collect, ms(int64(at.Sub(epoch)-m.done)))
			}
		}
	}
	for name, xs := range map[string][]float64{"queue": queue, "staging": staging, "exec": exec, "collect": collect} {
		out["vine.stage."+name+"_ms_p50"] = percentile(xs, 0.50)
		out["vine.stage."+name+"_ms_p99"] = percentile(xs, 0.99)
	}
	out["obs.events_per_task"] = ratio(float64(len(events)), float64(len(tasks)))
}

// foldTransfers pairs transfer_start with transfer_done on (destination,
// cachename) and reports per-direction throughput over the time each
// direction had a transfer open, the count, the median transfer duration and
// the share of [0, wall] during which any transfer (or any interval in extra,
// e.g. the client's FetchBytes calls) was open.
func foldTransfers(events []obs.Event, extra [][2]int64, wall time.Duration, out map[string]float64) {
	type key struct{ dst, name string }
	open := map[key]obs.Event{}
	var durMs []float64
	var all [][2]int64
	byDir := map[string]*struct {
		bytes int64
		iv    [][2]int64
	}{"mgr": {}, "peer": {}}
	for _, ev := range events {
		switch ev.Type {
		case obs.EvTransferStart:
			open[key{ev.Dst, ev.Detail}] = ev
		case obs.EvTransferDone:
			k := key{ev.Dst, ev.Detail}
			st, ok := open[k]
			if !ok {
				continue
			}
			delete(open, k)
			dir := "peer"
			if st.Src == "manager" {
				dir = "mgr"
			}
			d := byDir[dir]
			d.bytes += st.Bytes
			d.iv = append(d.iv, [2]int64{int64(st.T), int64(ev.T)})
			all = append(all, [2]int64{int64(st.T), int64(ev.T)})
			durMs = append(durMs, ms(int64(ev.T-st.T)))
		}
	}
	rate := func(dir string) float64 {
		d := byDir[dir]
		busy := covered(d.iv, 0, 1<<62)
		return ratio(float64(d.bytes)/1e6, float64(busy)/1e9)
	}
	out["vine.transfer.mgr_to_worker_mb_per_s"] = rate("mgr")
	out["vine.transfer.peer_mb_per_s"] = rate("peer")
	out["vine.transfer.count"] = float64(len(durMs))
	out["vine.transfer.wait_ms_p50"] = percentile(durMs, 0.50)
	all = append(all, extra...)
	out["vine.transfer.busy_share"] = ratio(float64(covered(all, 0, 1<<62)), float64(wall))
}

// foldControl reports what the control path cost in a traced round: process
// CPU minus the time spent inside task function bodies, per task.
func foldControl(r *round, body time.Duration, st vine.ManagerStats, out map[string]float64) {
	n := float64(r.tasks)
	out["vine.func_body_us_per_task"] = ratio(float64(body.Microseconds()), n)
	out["vine.func_body_cpu_share"] = ratio(float64(body), float64(r.cpu))
	out["vine.ctrl_cpu_us_per_task"] = ratio(float64((r.cpu - body).Microseconds()), n)
	out["vine.transfer.corrupt_or_retried"] = float64(st.CorruptTransfers + st.Retries)
}
