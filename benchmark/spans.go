package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the tracer's epoch; spans of one request (a round, or a
// single task) share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Req    string `json:"request_id,omitempty"`
}

// tracer keeps spans in memory until the run ends. It records only while on,
// so an untraced round pays one atomic load per call site.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Int64
	// round is the span of the round now running, the parent of spans
	// recorded inside tasks (they run on worker goroutines and cannot be
	// handed a parent).
	round atomic.Int64

	mu    sync.Mutex
	spans []span
	taken int // spans[:taken] were already returned by take
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; the zero value is a no-op.
type spanRef struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

func (t *tracer) begin(name string, parent int64, req string) spanRef {
	if !t.on.Load() {
		return spanRef{}
	}
	return spanRef{t: t, id: t.next.Add(1), parent: parent, name: name, req: req, start: time.Now()}
}

// inTask opens a span under the running round, for code inside a task.
func (t *tracer) inTask(name, req string) spanRef {
	return t.begin(name, t.round.Load(), req)
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	sp := span{ID: s.id, Parent: s.parent, Name: s.name, Req: s.req,
		Start: int64(s.start.Sub(s.t.epoch)), End: int64(now.Sub(s.t.epoch))}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
}

// take returns the spans recorded since the last take, so each traced round
// folds only its own; all of them stay in memory for writeSpans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans[t.taken:]
	t.taken = len(t.spans)
	return out
}

// spanTotals sums, per span name, the total duration and the self time: the
// span's duration minus the part of it its children cover.
func spanTotals(spans []span) (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(kids[s.ID], s.Start, s.End)
	}
	return total, self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			sum += b - a
		}
	}
	for _, x := range iv[1:] {
		if x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		flush()
		curLo, curHi = x[0], x[1]
	}
	flush()
	return sum
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// all returns every span recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}
