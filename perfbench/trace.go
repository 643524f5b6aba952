package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/core/tracking"
	"torhs/internal/resultstore"
)

// Span is one timed call across a layer boundary. Spans of one traced
// operation share a Trace id; Parent is the id of the span that caused
// this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory; WriteFile writes them out once the
// run ends, so recording costs no I/O while the benchmark measures.
type Recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Begin opens a span and returns the function that closes it.
func (r *Recorder) Begin(name string, parent, trace int64) (end func()) {
	id := r.next.Add(1)
	start := r.now()
	return func() {
		r.Add(Span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: r.now()})
	}
}

// ID reserves a span id, for a parent that closes after its children.
func (r *Recorder) ID() int64 { return r.next.Add(1) }

// Add records a span whose bounds were taken elsewhere.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Do runs fn inside a span.
func (r *Recorder) Do(name string, parent, trace int64, fn func() error) error {
	end := r.Begin(name, parent, trace)
	err := fn()
	end()
	return err
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Total returns the summed duration in seconds of the named spans.
func (r *Recorder) Total(name string) float64 {
	var t float64
	for _, s := range r.Spans() {
		if s.Name == name {
			t += float64(s.End-s.Start) / 1e9
		}
	}
	return t
}

// SelfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval that its children
// cover (children may overlap one another; their union is subtracted).
func SelfTimes(spans []Span) map[string]float64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// writeSelfTable prints the per-layer self-time table of the named trace.
func writeSelfTable(w io.Writer, name string, spans []Span) {
	self := SelfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-40s %12s\n", "span ("+name+")", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %12.4f\n", n, self[n])
	}
}

// WriteFile writes every span as one JSON object per line.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace writes the spans under .bench_build/traces and prints the
// self-time table to the log.
func finishTrace(p Params, rec *Recorder, name string) error {
	writeSelfTable(p.Log, name, rec.Spans())
	return rec.WriteFile(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, p.Seed)))
}

// docStats aggregates DocSource calls across a source and its clones.
type docStats struct {
	calls   atomic.Int64
	derived atomic.Int64 // consensus documents the relay simulation stepped
}

// tracedSource wraps a tracking.DocSource, recording a span per At call
// under parent. Clone is forwarded, so a source whose sweep shards by
// cloning shards exactly as it does untraced.
type tracedSource struct {
	src    tracking.DocSource
	rec    *Recorder
	parent int64
	trace  int64
	ring   int
	stats  *docStats
	// hi is the highest index this replica has reached since its last
	// rewind (-1 before the first At).
	hi int
}

func newTracedSource(src tracking.DocSource, ring int, rec *Recorder, parent, trace int64) *tracedSource {
	return &tracedSource{src: src, rec: rec, parent: parent, trace: trace, ring: ring, stats: &docStats{}, hi: -1}
}

func (s *tracedSource) Len() int { return s.src.Len() }

func (s *tracedSource) At(i int) (*consensus.Document, error) {
	end := s.rec.Begin("tracking.doc_fetch", s.parent, s.trace)
	doc, err := s.src.At(i)
	end()
	s.stats.calls.Add(1)
	// A replica steps its simulation forward to i; a read behind the ring
	// replays from day zero.
	switch {
	case i > s.hi:
		s.stats.derived.Add(int64(i - s.hi))
		s.hi = i
	case i <= s.hi-s.ring:
		s.stats.derived.Add(int64(i + 1))
		s.hi = i
	}
	return doc, err
}

// Clone forwards to the wrapped source when it clones; a source that
// does not clone is shared by the shards, as it is untraced. Replicas
// share the counters.
func (s *tracedSource) Clone() tracking.DocSource {
	src := s.src
	if c, ok := src.(interface{ Clone() tracking.DocSource }); ok {
		src = c.Clone()
	}
	return &tracedSource{src: src, rec: s.rec, parent: s.parent, trace: s.trace, ring: s.ring, stats: s.stats, hi: -1}
}

// stepMarks records when a pipeline reported each window boundary, so
// per-window times exclude the time the boundary itself took.
type stepMarks struct {
	mu    sync.Mutex
	start []time.Time
	end   []time.Time
}

func (m *stepMarks) mark(start, end time.Time) {
	m.mu.Lock()
	m.start = append(m.start, start)
	m.end = append(m.end, end)
	m.mu.Unlock()
}

// steps returns the per-window durations in seconds of a run from begin
// to finish: pipelines report every boundary but the last.
func (m *stepMarks) steps(begin, finish time.Time) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []float64
	prev := begin
	for i := range m.start {
		out = append(out, m.start[i].Sub(prev).Seconds())
		prev = m.end[i]
	}
	return append(out, finish.Sub(prev).Seconds())
}

// stepClock is a Checkpointer that persists nothing: it marks each step
// boundary the pipeline reports, so a run without a store still yields
// per-step times. The pipeline still builds the snapshot value it hands
// over, and the step times include that.
type stepClock struct{ stepMarks }

func (c *stepClock) Save(context.Context, int, any) error {
	now := time.Now()
	c.mark(now, now)
	return nil
}

func (c *stepClock) Latest(context.Context, any) (int, bool, error) { return 0, false, nil }

// ckptStats aggregates checkpoint saves across checkpointers.
type ckptStats struct {
	mu    sync.Mutex
	saves []float64 // milliseconds per save
	bytes int64
}

// tracedCheckpointer adapts a resultstore.CheckpointSet to the trawl and
// tracking Checkpointer interfaces, recording a span per save, the size
// of each snapshot file and the window boundaries.
type tracedCheckpointer struct {
	stepMarks
	set    *resultstore.CheckpointSet
	dir    string // the set's directory under the store
	rec    *Recorder
	parent int64
	trace  int64
	stats  *ckptStats
}

func newTracedCheckpointer(store *resultstore.Store, key resultstore.Key, rec *Recorder, parent, trace int64, stats *ckptStats) (*tracedCheckpointer, error) {
	set, err := store.Checkpoints(key)
	if err != nil {
		return nil, err
	}
	return &tracedCheckpointer{
		set: set, dir: filepath.Join(store.Dir(), "checkpoints", key.CacheKey()),
		rec: rec, parent: parent, trace: trace, stats: stats,
	}, nil
}

func (c *tracedCheckpointer) Save(_ context.Context, window int, state any) error {
	t0 := time.Now()
	end := c.rec.Begin("resultstore.checkpoint_save", c.parent, c.trace)
	err := c.set.Save(window, state)
	end()
	t1 := time.Now()
	if err != nil {
		return err
	}
	c.mark(t0, t1)
	fi, statErr := os.Stat(filepath.Join(c.dir, fmt.Sprintf("win-%08d.ckpt", window)))
	c.stats.mu.Lock()
	c.stats.saves = append(c.stats.saves, millis(t1.Sub(t0)))
	if statErr == nil {
		c.stats.bytes += fi.Size()
	}
	c.stats.mu.Unlock()
	return nil
}

func (c *tracedCheckpointer) Latest(_ context.Context, state any) (int, bool, error) {
	return c.set.Latest(state)
}

// routeStats aggregates handler spans per route.
type routeStats struct {
	mu  sync.Mutex
	dur map[string][]float64 // milliseconds
}

// traceHandler wraps the serving mux with one span per request, named
// after the route class the request falls in.
func traceHandler(next http.Handler, rec *Recorder, stats *routeStats) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		t0 := time.Now()
		end := rec.Begin("http."+route, 0, rec.ID())
		next.ServeHTTP(w, r)
		end()
		ms := millis(time.Since(t0))
		stats.mu.Lock()
		stats.dur[route] = append(stats.dur[route], ms)
		stats.mu.Unlock()
	})
}

func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost:
		return "submit"
	case r.URL.Path == "/experiments":
		return "listing"
	case r.Header.Get("If-None-Match") != "":
		return "revalidate"
	default:
		return "report"
	}
}
