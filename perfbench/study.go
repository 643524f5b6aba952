package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/resultstore"
	"torhs/internal/scenario"
)

// studyWorkload describes one study workload: the configuration a study
// runs, how a study is invoked, and the reference its output must equal.
type studyWorkload struct {
	name string
	// config is the measured configuration at a seed.
	config func(seed int64) experiments.Config
	// warmup is the smaller configuration set-up runs, so that lazy
	// initialisation and heap growth finish before timing.
	warmup func(seed int64) experiments.Config
	// stored runs each study through a fresh result store the way the
	// job plane runs a POSTed study.
	stored bool
	// reference returns the bytes every study's output must equal.
	reference func(ctx context.Context, seed int64) ([]byte, error)
}

// setupRepeats is how many times set-up runs; setup_s is their median.
const setupRepeats = 3

// minStudies is the fewest studies a measured run times, however long
// they take: on a slow machine two studies would leave a mean, not a
// median.
const minStudies = 3

// jobplaneScenario labels stored job-plane studies in the store.
const jobplaneScenario = "jobplane"

var studyPaper = studyWorkload{
	name: "study-paper",
	config: func(seed int64) experiments.Config {
		return experiments.ConfigFromSpec(scenario.MustLookup(scenario.PaperScale), seed)
	},
	warmup: func(seed int64) experiments.Config {
		return experiments.ConfigFromSpec(scenario.MustLookup(scenario.Smoke), seed)
	},
	// The reference renders on one worker: output must not depend on
	// the worker count.
	reference: func(ctx context.Context, seed int64) ([]byte, error) {
		cfg := experiments.ConfigFromSpec(scenario.MustLookup(scenario.PaperScale), seed)
		cfg.Workers = 1
		return render(ctx, cfg)
	},
}

// jobplaneConfig is a small landscape with a long time axis: the smoke
// preset at scale 0.02 with 20 trawl steps and 700 tracking days,
// streamed.
func jobplaneConfig(seed int64) experiments.Config {
	cfg := experiments.ConfigFromSpec(scenario.MustLookup(scenario.Smoke), seed)
	cfg.Scale = 0.02
	cfg.TrawlSteps = 20
	cfg.TrackingDays = 700
	cfg.Stream = true
	return cfg
}

var studyJobplane = studyWorkload{
	name:   "study-jobplane",
	config: jobplaneConfig,
	warmup: func(seed int64) experiments.Config {
		cfg := jobplaneConfig(seed)
		cfg.TrackingDays = 0 // the tracking default, 120 days
		cfg.TrawlSteps = 5
		return cfg
	},
	stored: true,
	// The reference is materialized, unstored and uncheckpointed: the
	// streamed, checkpointed, stored run must render the same bytes.
	reference: func(ctx context.Context, seed int64) ([]byte, error) {
		cfg := jobplaneConfig(seed)
		cfg.Stream = false
		return render(ctx, cfg)
	},
}

func runStudyPaper(ctx context.Context, p Params, res *Result) error {
	return runStudyWorkload(ctx, studyPaper, p, res)
}

func runStudyJobplane(ctx context.Context, p Params, res *Result) error {
	return runStudyWorkload(ctx, studyJobplane, p, res)
}

// studyRun is the outcome of one study.
type studyRun struct {
	out    []byte
	wall   time.Duration
	heapMB float64
	store  *resultstore.Store // the fresh store of a stored study
}

// runStudy runs one study with a cold Env. A stored study gets a fresh
// store under dir, left in place for the caller to inspect and remove.
func runStudy(ctx context.Context, w studyWorkload, cfg experiments.Config, dir string, progress func(experiments.ProgressEvent)) (*studyRun, error) {
	opts := experiments.RunOptions{Progress: progress}
	r := &studyRun{}
	if w.stored {
		store, err := resultstore.Open(dir)
		if err != nil {
			return nil, err
		}
		r.store = store
		opts.Scenario = jobplaneScenario
		opts.Store = store
		opts.UseCache = true
		opts.CheckpointEvery = 1
		opts.Resume = true
	}
	runtime.GC()
	heap := startHeapSampler()
	t0 := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err == nil {
		var buf bytes.Buffer
		_, err = experiments.Paper().RunStudy(ctx, env, opts, &buf)
		r.out = buf.Bytes()
	}
	r.wall = time.Since(t0)
	r.heapMB = heap.Stop()
	return r, err
}

// render runs a plain study (no store) and returns its text output.
func render(ctx context.Context, cfg experiments.Config) ([]byte, error) {
	r, err := runStudy(ctx, studyWorkload{}, cfg, "", nil)
	if err != nil {
		return nil, err
	}
	return r.out, nil
}

func studySetup(ctx context.Context, w studyWorkload, p Params) (float64, error) {
	i := 0
	return repeatSetup(ctx, setupRepeats, func(ctx context.Context) error {
		i++
		dir := filepath.Join(p.WorkDir, fmt.Sprintf("warmup-%d", i))
		defer os.RemoveAll(dir)
		_, err := runStudy(ctx, w, w.warmup(p.Seed), dir, nil)
		return err
	})
}

func runStudyWorkload(ctx context.Context, w studyWorkload, p Params, res *Result) error {
	setup, err := studySetup(ctx, w, p)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if p.Trace {
		return traceStudyWorkload(ctx, w, p, res)
	}
	res.set("setup_s", "s", setup)

	var walls, heaps []float64
	var outs [][]byte
	start := time.Now()
	for i := 0; i < minStudies || time.Since(start) < p.Measure; i++ {
		dir := filepath.Join(p.WorkDir, fmt.Sprintf("study-%d", i))
		r, err := runStudy(ctx, w, w.config(p.Seed), dir, nil)
		os.RemoveAll(dir)
		res.Attempted++
		if err != nil {
			fmt.Fprintf(p.Log, "study %d failed: %v\n", i, err)
			res.Failed++
			continue
		}
		walls = append(walls, seconds(r.wall))
		heaps = append(heaps, r.heapMB)
		outs = append(outs, r.out)
		fmt.Fprintf(p.Log, "study %d: %.3f s, peak heap %.1f MiB\n", i, seconds(r.wall), r.heapMB)
	}
	if len(walls) == 0 {
		return fmt.Errorf("every study failed")
	}

	ref, err := w.reference(ctx, p.Seed)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for i, out := range outs {
		if !bytes.Equal(out, ref) {
			fmt.Fprintf(p.Log, "study %d: output differs from the reference\n", i)
			res.Failed++
		}
	}
	study := median(walls)
	fmt.Fprintf(p.Log, "median study %.3f s\n", study)
	res.set("ops_per_s", "1/s", 1/study)
	res.set("peak_heap_mb", "MiB", median(heaps))
	return nil
}

// progressSpans turns the scheduler's Progress events into one span per
// experiment under the study span.
type progressSpans struct {
	rec    *Recorder
	parent int64
	trace  int64
	mu     sync.Mutex
	open   map[string]func()
}

func (ps *progressSpans) observe(ev experiments.ProgressEvent) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch ev.Stage {
	case "start":
		ps.open[ev.Experiment] = ps.rec.Begin("experiments."+ev.Experiment, ps.parent, ps.trace)
	case "done", "failed":
		if end, ok := ps.open[ev.Experiment]; ok {
			end()
			delete(ps.open, ev.Experiment)
		}
	}
}

// traceStudyWorkload is the traced run of a study workload: the study
// trace, then small runs of their own for the layers the workload never
// calls, so that every per-layer metric is printed.
func traceStudyWorkload(ctx context.Context, w studyWorkload, p Params, res *Result) error {
	rec := NewRecorder()
	if err := traceStudy(ctx, w, p, rec, res); err != nil {
		return err
	}
	if err := finishTrace(p, rec, w.name); err != nil {
		return err
	}
	if !w.stored {
		if err := complementStudy(ctx, w.name, p, res); err != nil {
			return err
		}
	}
	return complementServe(ctx, w.name, p, res)
}

// complementStudy fills the per-layer metrics still unset in res from a
// traced job-plane study at its warm-up size: stored, streamed and
// checkpointed, so it calls every study layer and the store's write
// path. Its spans are written as the trace <workload>-study-complement.
func complementStudy(ctx context.Context, workload string, p Params, res *Result) error {
	w := studyJobplane
	w.name, w.config = workload+"-study-complement", w.warmup
	q := p
	q.WorkDir = filepath.Join(p.WorkDir, w.name)
	rec := NewRecorder()
	sub := newResult()
	if err := traceStudy(ctx, w, q, rec, sub); err != nil {
		return fmt.Errorf("complement study: %w", err)
	}
	res.fillMissing(sub)
	return finishTrace(p, rec, w.name)
}

// traceStudy is the study trace: an untraced study as the baseline, the
// same study with one span per experiment from the scheduler's Progress
// hook, then the kernel replay on a fresh substrate. Only per-layer
// metrics come out of it.
func traceStudy(ctx context.Context, w studyWorkload, p Params, rec *Recorder, res *Result) error {
	rt := startRuntimeDelta()
	cfg := w.config(p.Seed)

	baseDir := filepath.Join(p.WorkDir, "untraced")
	base, err := runStudy(ctx, w, cfg, baseDir, nil)
	os.RemoveAll(baseDir)
	if err != nil {
		return fmt.Errorf("untraced study: %w", err)
	}

	const studyTrace = 1
	root := rec.ID()
	ps := &progressSpans{rec: rec, parent: root, trace: studyTrace, open: map[string]func(){}}
	t0 := rec.now()
	traced, err := runStudy(ctx, w, cfg, filepath.Join(p.WorkDir, "traced"), ps.observe)
	rec.Add(Span{ID: root, Trace: studyTrace, Name: "study", Start: t0, End: rec.now()})
	if err != nil {
		return fmt.Errorf("traced study: %w", err)
	}
	res.Attempted += 2
	if !bytes.Equal(traced.out, base.out) {
		fmt.Fprintln(p.Log, "traced study output differs from the untraced study")
		res.Failed++
	}

	wall := seconds(traced.wall)
	var longest, sum float64
	for _, name := range experiments.Paper().Names() {
		d := rec.Total("experiments." + name)
		res.set("experiments."+name+"_s", "s", d)
		longest = max(longest, d)
		sum += d
	}
	res.set("experiments.critical_share", "ratio", longest/wall)
	res.set("experiments.overlap", "ratio", sum/wall)
	res.set("trace.overhead_ratio", "ratio", wall/seconds(base.wall))

	var store *resultstore.Store
	if w.stored {
		store, err = resultstore.Open(filepath.Join(p.WorkDir, "replay"))
		if err != nil {
			return err
		}
		if err := replayPuts(traced.store, store, rec, res); err != nil {
			return err
		}
	}
	if err := runReplay(ctx, cfg, store, jobplaneScenario, rec, res); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	rt.record(res)
	return nil
}

// replayPuts re-stores every document the traced study persisted into
// a fresh store, timing the write path on the study's own documents.
func replayPuts(from, to *resultstore.Store, rec *Recorder, res *Result) error {
	entries, err := from.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("the stored study persisted no documents")
	}
	var total float64
	for i := range entries {
		doc, err := from.Document(&entries[i])
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = rec.Do("resultstore.put", 0, replayTrace, func() error {
			_, err := to.Put(entries[i].Key, doc)
			return err
		})
		total += seconds(time.Since(t0))
		if err != nil {
			return err
		}
	}
	res.set("resultstore.put_s", "s", total)
	return nil
}
