package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"torhs/internal/jobs"
	"torhs/internal/report"
)

// jobWatch times submitted jobs from the POST to Job.Done().
type jobWatch struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	dur []float64 // milliseconds
}

// watch waits in the background for the job to finish; stop waits for
// every watcher.
func (w *jobWatch) watch(mgr *jobs.Manager, id string, sent time.Time) {
	job, ok := mgr.Get(id)
	if !ok {
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		select {
		case <-job.Done():
		case <-time.After(30 * time.Second):
			return
		}
		d := millis(time.Since(sent))
		w.mu.Lock()
		w.dur = append(w.dur, d)
		w.mu.Unlock()
	}()
}

// traceServeReports is the traced run of the serving workload: the
// serving trace, then a small traced study of its own for the study
// layers and the store's write path, which serving never calls.
func traceServeReports(ctx context.Context, p Params, res *Result) error {
	rec := NewRecorder()
	srv, _, err := serveSetup(ctx, p, rec)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := traceServing(ctx, srv, p, rec, res); err != nil {
		return err
	}
	if err := finishTrace(p, rec, "serve-reports"); err != nil {
		return err
	}
	return complementStudy(ctx, "serve-reports", p, res)
}

// complementServeMeasure is how long the serving complement offers load.
const complementServeMeasure = 4 * time.Second

// complementServe fills the per-layer metrics still unset in res from a
// short serving trace over a store populated at the seed. Its spans are
// written as the trace <workload>-serve-complement.
func complementServe(ctx context.Context, workload string, p Params, res *Result) error {
	rec := NewRecorder()
	srv, err := startServer(ctx, filepath.Join(p.WorkDir, "complement-store"), p.Seed, rec)
	if err != nil {
		return fmt.Errorf("complement serving: %w", err)
	}
	q := p
	q.Measure = complementServeMeasure
	sub := newResult()
	if err := traceServing(ctx, srv, q, rec, sub); err != nil {
		return fmt.Errorf("complement serving: %w", err)
	}
	res.fillMissing(sub)
	return finishTrace(p, rec, workload+"-serve-complement")
}

// traceServing offers the mix at the light and the heavy rate plain,
// the heavy rate again through the span middleware, stops srv, then
// calls the cold read path (index lookup, document load, encoding)
// directly per slot.
func traceServing(ctx context.Context, srv *server, p Params, rec *Recorder, res *Result) error {
	rt := startRuntimeDelta()
	m := newMix(p.Seed, len(srv.slots), len(report.Formats()))
	quarter := p.Measure / 4
	var all []*phaseResult
	light := srv.fixedPhase(ctx, m, lightRate, quarter, p.Log, &all)
	plain := srv.fixedPhase(ctx, m, heavyRate, quarter, p.Log, &all)
	srv.tracing.Store(true)
	traced := srv.fixedPhase(ctx, m, heavyRate, 2*quarter, p.Log, &all)
	srv.tracing.Store(false)
	rt.record(res)

	res.Failed += srv.checkJobs(all...)
	for _, pr := range all {
		res.Attempted += len(pr.ops)
		res.Failed += pr.failed
	}
	stopErr := srv.stop()
	if stopErr != nil {
		return stopErr
	}

	for _, route := range opNames {
		res.set("http."+route+"_ms", "ms", median(srv.routes.dur[route]))
	}
	svcPlain := median(plain.service())
	res.set("http.svc_p50_ms", "ms", svcPlain)
	res.set("trace.overhead_ratio", "ratio", median(traced.service())/svcPlain)
	res.set("loadgen.lag_p99_ms", "ms", quantile(plain.lag, 0.99))
	res.set("loadgen.achieved_ratio", "ratio", plain.achieved)
	res.set("loadgen.read_p50_ms", "ms", light.latency(0.50, opReport, opRevalidate))
	res.set("loadgen.read_p95_ms", "ms", light.latency(0.95, opReport, opRevalidate))
	res.set("loadgen.read_heavy_p50_ms", "ms", plain.latency(0.50, opReport, opRevalidate))
	res.set("loadgen.read_heavy_p95_ms", "ms", plain.latency(0.95, opReport, opRevalidate))
	res.set("loadgen.submit_p50_ms", "ms", light.latency(0.50, opSubmit))

	var submits, deduped, shed int
	for _, pr := range all {
		for i, o := range pr.ops {
			if o.kind != opSubmit {
				continue
			}
			submits++
			if pr.out[i].deduped {
				deduped++
			}
			if pr.out[i].status == 429 {
				shed++
			}
		}
	}
	res.set("jobs.dedupe_ratio", "ratio", float64(deduped)/float64(max(submits, 1)))
	res.set("jobs.shed", "count", float64(shed))
	res.set("jobs.done_p50_ms", "ms", median(srv.jobsDone.dur))

	return coldPath(srv, rec, res)
}

// coldPath times the store's read path and the encoders once per slot,
// checking each encoding against the oracle.
func coldPath(srv *server, rec *Recorder, res *Result) error {
	const coldTrace = 3
	var lookup, load []float64
	encode := make(map[string][]float64)
	for i := range srv.slots {
		ref := &srv.slots[i]
		t0 := time.Now()
		var err error
		rec.Do("resultstore.lookup", 0, coldTrace, func() error {
			_, err = srv.store.Lookup(ref.scenario, ref.experiment)
			return err
		})
		lookup = append(lookup, millis(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		var doc *report.Document
		rec.Do("resultstore.document", 0, coldTrace, func() error {
			doc, err = srv.store.Document(ref.entry)
			return err
		})
		load = append(load, millis(time.Since(t0)))
		if err != nil {
			return err
		}
		for f, format := range report.Formats() {
			var buf bytes.Buffer
			t0 = time.Now()
			err := rec.Do("report.encode_"+format, 0, coldTrace, func() error { return report.Encode(&buf, doc, format) })
			encode[format] = append(encode[format], millis(time.Since(t0)))
			if err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), ref.body[f]) {
				res.Failed++
			}
			res.Attempted++
		}
	}
	res.set("resultstore.lookup_ms", "ms", median(lookup))
	res.set("resultstore.document_ms", "ms", median(load))
	for _, format := range report.Formats() {
		res.set("report.encode_"+format+"_ms", "ms", median(encode[format]))
	}
	return nil
}
