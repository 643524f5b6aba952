package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/jobs"
	"torhs/internal/report"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
)

// The serving workload drives the mux cmd/hsserve builds — the job API
// plus the store handler — over loopback with an open-loop schedule: a
// request is due at a time drawn from the seed, whether or not earlier
// ones have finished, and its latency counts from that due time.
const (
	lightRate = 2000 // requests per second
	heavyRate = 6000
	// maxConns bounds client connections: the machine has 2 CPUs, and
	// more connections than CPUs only measure scheduler contention.
	maxConns = 2
	// capacitySlice is the span over which the saturation phase counts
	// completions; it reports the median slice, so one stall of the
	// shared machine moves one slice, not the result.
	capacitySlice = 250 * time.Millisecond
	// maxLagP50 and minAchieved decide whether a fixed-rate phase was
	// really offered at its rate; a phase outside them is invalid. A
	// stall delays the requests due during it, which their latency
	// counts; only a generator that is late for most requests, or a
	// phase that left work unfinished, did not offer the rate.
	maxLagP50   = 2 * time.Millisecond
	minAchieved = 0.97
	// A fixed-rate phase whose generator lag p99 exceeds maxLagP99 was
	// starved of CPU by something outside the benchmark — on a shared
	// machine, a neighbour — and is offered again, up to maxRetries
	// times.
	maxLagP99  = 10 * time.Millisecond
	maxRetries = 2
	// window is the span of due times over which a latency percentile
	// is taken; a phase reports the median over its windows, so one
	// stall of the shared machine moves one window, not the result.
	window = 500 * time.Millisecond
)

// servedScenarios are the presets the store is populated with.
var servedScenarios = []string{scenario.Smoke, scenario.Laptop}

// opKind is one kind of request in the mix.
type opKind int

const (
	opReport opKind = iota
	opRevalidate
	opListing
	opSubmit
)

var opNames = [...]string{"report", "revalidate", "listing", "submit"}

// op is one scheduled request.
type op struct {
	kind   opKind
	slot   int // index into the oracle's slots (report, revalidate)
	format int // index into report.Formats()
	scen   int // index into servedScenarios (submit)
	due    time.Duration
}

// outcome is one request's measured result.
type outcome struct {
	sent, done time.Duration // since the phase start
	status     int
	ok         bool
	jobID      string
	deduped    bool
}

// slotRef is the oracle for one stored (scenario, experiment) slot.
type slotRef struct {
	scenario, experiment string
	entry                *resultstore.Entry
	body                 [][]byte // per format: report.Encode of Store.Document
	etag                 []string
}

// server is one running serving stack.
type server struct {
	store  *resultstore.Store
	seed   int64 // the seed the store was populated at
	mgr    *jobs.Manager
	http   *http.Server
	url    string
	served chan error
	slots  []slotRef
	client *http.Client
	// routes and jobsDone are non-nil in traced runs.
	routes   *routeStats
	jobsDone *jobWatch
	tracing  atomic.Bool
}

// startServer populates a fresh store under dir with the served presets
// at seed, starts the job plane and the HTTP server on loopback, builds
// the oracle and reads every slot once through the server.
func startServer(ctx context.Context, dir string, seed int64, rec *Recorder) (*server, error) {
	store, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range servedScenarios {
		env, err := experiments.NewEnv(experiments.ConfigFromSpec(scenario.MustLookup(name), seed))
		if err != nil {
			return nil, err
		}
		if _, err := experiments.Paper().RunStudy(ctx, env, experiments.RunOptions{Scenario: name, Store: store}, nil); err != nil {
			return nil, fmt.Errorf("populate %s: %w", name, err)
		}
	}
	s := &server{store: store, seed: seed, served: make(chan error, 1)}
	if err := s.buildOracle(); err != nil {
		return nil, err
	}

	// The same wiring as cmd/hsserve.
	s.mgr = jobs.NewManager(jobs.Options{Store: store, QueueDepth: 8, JobTimeout: 10 * time.Minute})
	s.mgr.Start(context.Background())
	storeHandler := resultstore.NewServer(store).Handler()
	mux := http.NewServeMux()
	jobs.NewAPI(s.mgr).Register(mux)
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, r *http.Request) {
		if s.mgr.Draining() {
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, "draining", http.StatusServiceUnavailable)
			return
		}
		storeHandler.ServeHTTP(rw, r)
	})
	mux.Handle("/", storeHandler)
	var handler http.Handler = mux
	if rec != nil {
		s.routes = &routeStats{dur: map[string][]float64{}}
		s.jobsDone = &jobWatch{}
		traced := traceHandler(mux, rec, s.routes)
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if s.tracing.Load() {
				traced.ServeHTTP(w, r)
				return
			}
			mux.ServeHTTP(w, r)
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.mgr.Drain(time.Second) // the listen error is the one to report
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}

	// Cold reads: every slot in every format once, checked.
	for i := range s.slots {
		for f := range report.Formats() {
			if !s.do(ctx, op{kind: opReport, slot: i, format: f}, &outcome{}, time.Now()) {
				_ = s.stop() // the oracle failure is the one to report
				return nil, fmt.Errorf("cold read of %s/%s failed the oracle", s.slots[i].scenario, s.slots[i].experiment)
			}
		}
	}
	return s, nil
}

// buildOracle encodes every stored slot in every format straight from
// the store.
func (s *server) buildOracle() error {
	entries, err := s.store.List()
	if err != nil {
		return err
	}
	if want := len(servedScenarios) * len(experiments.Paper().Names()); len(entries) != want {
		return fmt.Errorf("store holds %d slots, want %d", len(entries), want)
	}
	for i := range entries {
		e := &entries[i]
		ref := slotRef{scenario: e.Key.Scenario, experiment: e.Key.Experiment, entry: e}
		doc, err := s.store.Document(e)
		if err != nil {
			return err
		}
		for _, f := range report.Formats() {
			var buf bytes.Buffer
			if err := report.Encode(&buf, doc, f); err != nil {
				return err
			}
			ref.body = append(ref.body, buf.Bytes())
			ref.etag = append(ref.etag, fmt.Sprintf("%q", e.ContentHash[:32]+"-"+f))
		}
		s.slots = append(s.slots, ref)
	}
	return nil
}

// listingOK reports whether a /experiments body lists exactly the
// stored slots, each with its content hash.
func (s *server) listingOK(body []byte) bool {
	var rows []struct {
		Scenario    string `json:"scenario"`
		Experiment  string `json:"experiment"`
		ContentHash string `json:"contentHash"`
	}
	if json.Unmarshal(body, &rows) != nil || len(rows) != len(s.slots) {
		return false
	}
	for i, r := range rows {
		ref := &s.slots[i]
		if r.Scenario != ref.scenario || r.Experiment != ref.experiment || r.ContentHash != ref.entry.ContentHash {
			return false
		}
	}
	return true
}

// stop drains the job plane and shuts the server down.
func (s *server) stop() error {
	if s.jobsDone != nil {
		s.jobsDone.wg.Wait()
	}
	drainErr := s.mgr.Drain(20 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	shutErr := s.http.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	return errors.Join(drainErr, shutErr)
}

// do sends one request, checks the response against the oracle and
// fills o. It reports whether the response was correct.
func (s *server) do(ctx context.Context, o op, out *outcome, epoch time.Time) bool {
	var req *http.Request
	var err error
	switch o.kind {
	case opReport, opRevalidate:
		ref := &s.slots[o.slot]
		url := s.url + "/report/" + ref.scenario + "/" + ref.experiment + "?format=" + report.Formats()[o.format]
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err == nil && o.kind == opRevalidate {
			req.Header.Set("If-None-Match", ref.etag[o.format])
		}
	case opListing:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/experiments", nil)
	case opSubmit:
		body := fmt.Sprintf(`{"scenario":%q,"seed":%d}`, servedScenarios[o.scen], s.seed)
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/studies", strings.NewReader(body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return false
	}
	out.sent = time.Since(epoch)
	resp, err := s.client.Do(req)
	if err != nil {
		out.done = time.Since(epoch)
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.done = time.Since(epoch)
	out.status = resp.StatusCode
	if err != nil {
		return false
	}
	switch o.kind {
	case opReport:
		ref := &s.slots[o.slot]
		out.ok = resp.StatusCode == http.StatusOK && bytes.Equal(body, ref.body[o.format]) &&
			resp.Header.Get("ETag") == ref.etag[o.format]
	case opRevalidate:
		out.ok = resp.StatusCode == http.StatusNotModified
	case opListing:
		out.ok = resp.StatusCode == http.StatusOK && s.listingOK(body)
	case opSubmit:
		var sr jobs.SubmitResponse
		if (resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK) && json.Unmarshal(body, &sr) == nil && sr.ID != "" {
			out.ok, out.jobID, out.deduped = true, sr.ID, sr.Deduped
			if s.jobsDone != nil {
				s.jobsDone.watch(s.mgr, sr.ID, epoch.Add(out.sent))
			}
		}
	}
	return out.ok
}

// mix draws the request mix from the seed: ~70% report reads, Zipf-
// skewed over slots (in listing order) and formats (in report.Formats
// order), ~25% revalidations, ~3% listings and ~2% submissions. The hot
// set is the same for every seed, so seeds differ in arrivals and
// draws, not in which documents are hot.
type mix struct {
	rng               *rand.Rand
	slotZipf, fmtZipf *rand.Zipf
}

func newMix(seed int64, slots, formats int) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{
		rng:      rng,
		slotZipf: rand.NewZipf(rng, 1.2, 1, uint64(slots-1)),
		fmtZipf:  rand.NewZipf(rng, 1.5, 1, uint64(formats-1)),
	}
}

func (m *mix) next() op {
	var o op
	switch u := m.rng.Float64(); {
	case u < 0.70:
		o.kind = opReport
	case u < 0.95:
		o.kind = opRevalidate
	case u < 0.98:
		o.kind = opListing
	default:
		o.kind = opSubmit
		o.scen = m.rng.Intn(len(servedScenarios))
	}
	o.slot = int(m.slotZipf.Uint64())
	o.format = int(m.fmtZipf.Uint64())
	return o
}

// schedule draws an open-loop Poisson arrival schedule at rate for d;
// without submits, the mix's submissions are redrawn as other requests.
func (m *mix) schedule(rate float64, d time.Duration, submits bool) []op {
	var ops []op
	var t float64
	for {
		t += m.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		o := m.next()
		for !submits && o.kind == opSubmit {
			o = m.next()
		}
		o.due = due
		ops = append(ops, o)
	}
}

// phaseResult summarises one open-loop phase.
type phaseResult struct {
	ops      []op
	out      []outcome
	lag      []float64 // ms the generator dispatched each request late
	failed   int
	backlog  int // requests not finished when the schedule ended
	achieved float64
}

// runPhase offers the schedule open-loop through maxConns client
// workers and waits for every request to finish.
func (s *server) runPhase(ctx context.Context, ops []op, d time.Duration) *phaseResult {
	pr := &phaseResult{ops: ops, out: make([]outcome, len(ops)), lag: make([]float64, len(ops))}
	// Sized to the whole schedule so the generator never blocks: a
	// backlog waits here and shows up as latency from the due time.
	queue := make(chan int, len(ops))
	var completed atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	wg.Add(maxConns)
	for w := 0; w < maxConns; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				s.do(ctx, ops[i], &pr.out[i], epoch)
				completed.Add(1)
			}
		}()
	}
	for i := range ops {
		if wait := ops[i].due - time.Since(epoch); wait > 0 {
			time.Sleep(wait)
		}
		pr.lag[i] = millis(time.Since(epoch) - ops[i].due)
		queue <- i
	}
	if wait := d - time.Since(epoch); wait > 0 {
		time.Sleep(wait)
	}
	pr.backlog = len(ops) - int(completed.Load())
	close(queue)
	wg.Wait()
	for i := range pr.out {
		if !pr.out[i].ok {
			pr.failed++
		}
	}
	pr.achieved = float64(len(ops)-pr.backlog) / float64(len(ops))
	return pr
}

// fixedPhase offers the mix at rate for d, again while the generator
// was starved (see maxLagP99); the last attempt is the phase's result.
// Every attempt's requests are checked, and all attempts are appended
// to all for counting.
func (s *server) fixedPhase(ctx context.Context, m *mix, rate float64, d time.Duration, log io.Writer, all *[]*phaseResult) *phaseResult {
	for attempt := 0; ; attempt++ {
		pr := s.runPhase(ctx, m.schedule(rate, d, true), d)
		*all = append(*all, pr)
		lag := quantile(pr.lag, 0.99)
		if lag <= millis(maxLagP99) || attempt == maxRetries {
			return pr
		}
		fmt.Fprintf(log, "%d req/s: generator lag p99 %.1f ms, offering the phase again\n", int(rate), lag)
	}
}

// latency returns the q-quantile of due-to-response latency in ms of
// the ops of the given kinds: the median over the phase's windows of
// due times of each window's quantile.
func (pr *phaseResult) latency(q float64, kinds ...opKind) float64 {
	var byWindow [][]float64
	for i, o := range pr.ops {
		for _, k := range kinds {
			if o.kind == k {
				w := int(o.due / window)
				for len(byWindow) <= w {
					byWindow = append(byWindow, nil)
				}
				byWindow[w] = append(byWindow[w], millis(pr.out[i].done-o.due))
			}
		}
	}
	var perWindow []float64
	for _, xs := range byWindow {
		if len(xs) > 0 {
			perWindow = append(perWindow, quantile(xs, q))
		}
	}
	return median(perWindow)
}

// service returns send-to-response times in ms of every request.
func (pr *phaseResult) service() []float64 {
	out := make([]float64, len(pr.ops))
	for i := range pr.ops {
		out[i] = millis(pr.out[i].done - pr.out[i].sent)
	}
	return out
}

// valid reports whether the generator kept to the offered rate.
func (pr *phaseResult) valid() bool {
	return quantile(pr.lag, 0.50) <= millis(maxLagP50) && pr.achieved >= minAchieved
}

// saturate measures the rate above which an open-loop read backlog
// grows: it keeps both client connections busy for d with reads drawn
// from the mix and returns the median completion rate over slices of d.
// With a backlog, the open-loop workers run exactly so, back to back. A
// ladder of rising open-loop rates measures the same knee, but on two
// shared CPUs whether a short step's backlog grew was mostly noise.
// Submissions are left out: each starts a job on the server, and a job
// worker busy or idle during a slice would halve or double its rate.
// Reads are drawn as they are sent and only counted, so the generator
// holds no per-request state and the heap it leaves is the server's.
func (s *server) saturate(ctx context.Context, m *mix, d time.Duration, log io.Writer) (capacity float64, attempted, failed int) {
	slices := make([]float64, d/capacitySlice)
	var mu sync.Mutex // guards m, slices, attempted and failed
	var wg sync.WaitGroup
	epoch := time.Now()
	wg.Add(maxConns)
	for w := 0; w < maxConns; w++ {
		go func() {
			defer wg.Done()
			for time.Since(epoch) < d {
				mu.Lock()
				o := m.next()
				for o.kind == opSubmit {
					o = m.next()
				}
				mu.Unlock()
				var out outcome
				ok := s.do(ctx, o, &out, epoch)
				mu.Lock()
				attempted++
				if !ok {
					failed++
				}
				if k := int(out.done / capacitySlice); k < len(slices) {
					slices[k]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for k := range slices {
		slices[k] /= capacitySlice.Seconds()
	}
	fmt.Fprintf(log, "saturation: %.0f req/s per slice\n", slices)
	return median(slices), attempted, failed
}

// checkJobs waits for every submitted job and checks that it finished
// with every experiment served from the cache. It returns the number of
// submissions whose job did not.
func (s *server) checkJobs(results ...*phaseResult) int {
	bad := 0
	seen := map[string]bool{}
	for _, pr := range results {
		for i, o := range pr.ops {
			if o.kind != opSubmit || !pr.out[i].ok || seen[pr.out[i].jobID] {
				continue
			}
			seen[pr.out[i].jobID] = true
			if !s.jobAllCached(pr.out[i].jobID) {
				bad++
			}
		}
	}
	return bad
}

func (s *server) jobAllCached(id string) bool {
	job, ok := s.mgr.Get(id)
	if !ok {
		return false
	}
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		return false
	}
	if job.Status().State != jobs.StateDone {
		return false
	}
	events, release := job.Subscribe()
	defer release()
	cached := 0
	for ev := range events {
		if ev.Type == "progress" {
			if ev.Stage != "cached" {
				return false
			}
			cached++
		}
	}
	return cached == len(experiments.Paper().Names())
}

func serveSetup(ctx context.Context, p Params, rec *Recorder) (*server, float64, error) {
	var srv *server
	i := 0
	setup, err := repeatSetup(ctx, setupRepeats, func(ctx context.Context) error {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return err
			}
		}
		i++
		var err error
		srv, err = startServer(ctx, filepath.Join(p.WorkDir, fmt.Sprintf("store-%d", i)), p.Seed, rec)
		return err
	})
	if err != nil {
		if srv != nil {
			_ = srv.stop() // the set-up error is the one to report
		}
		return nil, 0, err
	}
	return srv, setup, nil
}

func runServeReports(ctx context.Context, p Params, res *Result) error {
	if p.Trace {
		return traceServeReports(ctx, p, res)
	}
	srv, setup, err := serveSetup(ctx, p, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res.set("setup_s", "s", setup)

	m := newMix(p.Seed, len(srv.slots), len(report.Formats()))
	fixed := p.Measure * 3 / 10
	var all []*phaseResult
	light := srv.fixedPhase(ctx, m, lightRate, fixed, p.Log, &all)
	heavy := srv.fixedPhase(ctx, m, heavyRate, fixed, p.Log, &all)
	res.Failed = srv.checkJobs(all...)
	for _, pr := range all {
		res.Attempted += len(pr.ops)
		res.Failed += pr.failed
	}
	for _, ph := range []struct {
		name string
		pr   *phaseResult
	}{{"light", light}, {"heavy", heavy}} {
		fmt.Fprintf(p.Log, "%s: %d requests, lag p99 %.3f ms, achieved %.4f, backlog %d, failed %d\n",
			ph.name, len(ph.pr.ops), quantile(ph.pr.lag, 0.99), ph.pr.achieved, ph.pr.backlog, ph.pr.failed)
		if !ph.pr.valid() {
			// The generator could not keep to the rate, so the phase's
			// latencies do not describe the offered load: count the
			// phase as failed rather than report them.
			fmt.Fprintf(p.Log, "%s phase invalid: the generator fell behind its schedule\n", ph.name)
			res.Failed += len(ph.pr.ops)
		}
	}
	// Latencies spread too widely between runs on a shared 2-CPU machine
	// to carry a bound; they are logged here and the traced run reports
	// them per layer.
	fmt.Fprintf(p.Log, "read p50 %.3f ms, p95 %.3f ms at %d req/s; p50 %.3f ms, p95 %.3f ms at %d req/s; submit p50 %.3f ms\n",
		light.latency(0.50, opReport, opRevalidate), light.latency(0.95, opReport, opRevalidate), lightRate,
		heavy.latency(0.50, opReport, opRevalidate), heavy.latency(0.95, opReport, opRevalidate), heavyRate,
		light.latency(0.50, opSubmit))

	// The fixed-rate schedules are dropped before the saturation phase,
	// so the heap sampled there is the serving stack's.
	all, light, heavy = nil, nil, nil
	runtime.GC()
	heap := startHeapSampler()
	capacity, satAttempted, satFailed := srv.saturate(ctx, m, p.Measure-2*fixed, p.Log)
	peak := heap.Stop()
	res.Attempted += satAttempted
	res.Failed += satFailed
	if err := srv.stop(); err != nil {
		return err
	}
	res.set("ops_per_s", "1/s", capacity)
	res.set("peak_heap_mb", "MiB", peak)
	return nil
}
