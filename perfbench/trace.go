package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tctp/internal/baseline"
	"tctp/internal/core"
	"tctp/internal/field"
	"tctp/internal/geom"
	"tctp/internal/patrol"
	"tctp/internal/scenario"
	"tctp/internal/sweep"
)

// span is one timed call into a layer, recorded from outside the
// program: the hooks and wrappers below open and close spans around
// the calls the program already makes through its public seams.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index into tracer.spans, -1 for a root
	op         int           // the benchmark op the span belongs to, -1 if none
}

// tracer keeps spans in memory until the run ends. The structure of a
// local op is fixed (op → run → rep → scenario/plan/simulate/metrics,
// run → sink) and, with Workers: 1, a replication's hooks fire in order
// on one goroutine, so a span's parent is whichever span of the parent
// layer is open.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  map[string]int // the open span of each layer
	op    int

	visits atomic.Int64 // patrol.Observer visit events

	// Per worker transport: when its last lease response ended.
	leaseEnd map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		open:     map[string]int{},
		op:       -1,
		leaseEnd: map[string]time.Duration{},
	}
}

// reset drops everything recorded so far, such as a set-up's spans.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.op = nil, -1
	t.open = map[string]int{}
	t.leaseEnd = map[string]time.Duration{}
	t.mu.Unlock()
	t.visits.Store(0)
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span of layer name under the open span of layer
// parent ("" for a root).
func (t *tracer) begin(name, parent string) {
	at := t.now()
	t.mu.Lock()
	p := -1
	if parent != "" {
		if i, ok := t.open[parent]; ok {
			p = i
		}
	}
	t.open[name] = len(t.spans)
	t.spans = append(t.spans, span{name: name, start: at, end: -1, parent: p, op: t.op})
	t.mu.Unlock()
}

// end closes the open span of layer name.
func (t *tracer) end(name string) {
	at := t.now()
	t.mu.Lock()
	if i, ok := t.open[name]; ok {
		t.spans[i].end = at
		delete(t.open, name)
	}
	t.mu.Unlock()
}

// add records a closed span directly.
func (t *tracer) add(name string, start, end time.Duration, op int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: -1, op: op})
	t.mu.Unlock()
}

func (t *tracer) beginOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
	t.begin("op", "")
}

// write saves the spans as JSON lines, times in microseconds since the
// tracer's epoch.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		err := enc.Encode(struct {
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			Parent  int     `json:"parent"`
			Op      int     `json:"op"`
		}{s.name, float64(s.start) / 1e3, float64(s.end) / 1e3, s.parent, s.op})
		if err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// layerTimes sums, per layer, the spans' durations and their self
// times (duration minus the time covered by child spans), and counts
// the spans.
func (t *tracer) layerTimes() (total, self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.end >= 0 && s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - child[i]
		count[s.name]++
	}
	return total, self, count
}

// instrument attaches the tracer to a local sweep spec through the
// spec's own hooks. None of them changes what the sweep computes; the
// benchmark checks that by comparing traced and untraced output bytes.
func (t *tracer) instrument(spec *sweep.Spec) {
	// Configure runs first in a replication, just before the cell
	// scenario is materialized; Options runs just after.
	configure := spec.Configure
	spec.Configure = func(p sweep.Point, sc *scenario.Scenario) {
		t.begin("rep", "run")
		t.begin("scenario", "rep")
		if configure != nil {
			configure(p, sc)
		}
	}
	options := spec.Options
	spec.Options = func(p sweep.Point, o *patrol.Options) {
		t.end("scenario")
		if options != nil {
			options(p, o)
		}
		o.Observers = append(o.Observers, visitCounter{&t.visits})
	}
	for i, v := range spec.Algorithms {
		if pl := planner(v.Name); pl != nil {
			spec.Algorithms[i] = sweep.Algo(v.Name, patrol.Planned(timedPlanner{pl, t}))
		}
	}
	// patrol.Run simulates between the plan returning and the first
	// metric call; the last metric call ends the replication.
	n := len(spec.Metrics)
	for i := range spec.Metrics {
		fn, first, last := spec.Metrics[i].Fn, i == 0, i == n-1
		spec.Metrics[i].Fn = func(e sweep.Env) float64 {
			if first {
				t.end("simulate")
				t.begin("metrics", "rep")
			}
			v := fn(e)
			if last {
				t.end("metrics")
				t.end("rep")
			}
			return v
		}
	}
}

// planner maps an algorithm axis name to the core.Planner the sweep
// builder wraps in patrol.Planned for it.
func planner(name string) core.Planner {
	switch name {
	case "btctp":
		return &core.BTCTP{}
	case "wtctp":
		return &core.WTCTP{}
	case "chb":
		return &baseline.CHB{}
	}
	return nil
}

// timedPlanner times core.Planner.Plan and opens the simulate span
// when it returns.
type timedPlanner struct {
	core.Planner
	t *tracer
}

func (p timedPlanner) Plan(s *field.Scenario) (*core.FleetPlan, error) {
	p.t.begin("plan", "rep")
	fp, err := p.Planner.Plan(s)
	p.t.end("plan")
	p.t.begin("simulate", "rep")
	return fp, err
}

// visitCounter is a patrol.Observer that counts visit events.
type visitCounter struct{ n *atomic.Int64 }

func (c visitCounter) OnVisit(int, int, float64)        { c.n.Add(1) }
func (c visitCounter) OnDeath(int, float64, geom.Point) {}
func (c visitCounter) OnRecharge(int, float64)          {}

// tracedSink times every call into the wrapped sweep.Sink.
type tracedSink struct {
	sweep.Sink
	t *tracer
}

func (s tracedSink) Begin(spec *sweep.Spec, cells int) error {
	s.t.begin("sink", "run")
	defer s.t.end("sink")
	return s.Sink.Begin(spec, cells)
}

func (s tracedSink) Cell(c *sweep.CellResult) error {
	s.t.begin("sink", "run")
	defer s.t.end("sink")
	return s.Sink.Cell(c)
}

func (s tracedSink) End(r *sweep.Result) error {
	s.t.begin("sink", "run")
	defer s.t.end("sink")
	return s.Sink.End(r)
}

type opKey struct{}

// withOp tags a client request's context with its benchmark op.
func withOp(ctx context.Context, op int) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// tracedTransport is an http.RoundTripper that records a span per
// request, from the call until the response body is closed, and counts
// body bytes both ways. On a worker's transport it also records the
// compute span between a lease response and the next result post.
type tracedTransport struct {
	base   http.RoundTripper
	t      *tracer
	worker string        // "" on the benchmark clients' transport
	bytes  *atomic.Int64 // body bytes both ways; nil counts nothing
}

func (rt tracedTransport) count(n int64) {
	if rt.bytes != nil {
		rt.bytes.Add(n)
	}
}

func (rt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := rt.t.now()
	name := endpoint(req)
	op := -1
	if v, ok := req.Context().Value(opKey{}).(int); ok {
		op = v
	}
	if rt.worker != "" && name == "worker_result" {
		rt.t.mu.Lock()
		leased, ok := rt.t.leaseEnd[rt.worker]
		delete(rt.t.leaseEnd, rt.worker)
		rt.t.mu.Unlock()
		if ok {
			rt.t.add("compute", leased, start, op)
		}
	}
	if req.ContentLength > 0 {
		rt.count(req.ContentLength)
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.t.add(name+"_error", start, rt.t.now(), op)
		return resp, err
	}
	if name == "lease" && resp.StatusCode != http.StatusOK {
		name = "lease_empty"
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, rt: rt, name: name, start: start, op: op}
	return resp, nil
}

// endpoint names the service endpoint a request calls.
func endpoint(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/sweeps":
		return "submit"
	case strings.HasSuffix(p, "/result.csv"):
		return "result"
	case p == "/workers/lease":
		return "lease"
	case p == "/workers/result":
		return "worker_result"
	case p == "/workers/heartbeat":
		return "heartbeat"
	}
	return "other"
}

type tracedBody struct {
	io.ReadCloser
	rt     tracedTransport
	name   string
	start  time.Duration
	op     int
	closed bool
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.rt.count(int64(n))
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		end := b.rt.t.now()
		b.rt.t.add(b.name, b.start, end, b.op)
		if b.name == "lease" {
			b.rt.t.mu.Lock()
			b.rt.t.leaseEnd[b.rt.worker] = end
			b.rt.t.mu.Unlock()
		}
	}
	return err
}
