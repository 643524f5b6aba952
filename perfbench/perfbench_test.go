package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"torhs/internal/experiments"
	"torhs/internal/jobs"
	"torhs/internal/scenario"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a study workload to the smoke landscape and a short
// time axis, keeping how it runs (stored, streamed) and its oracle.
func tiny(w studyWorkload) studyWorkload {
	small := func(seed int64) experiments.Config {
		cfg := experiments.ConfigFromSpec(scenario.MustLookup(scenario.Smoke), seed)
		cfg.Scale = 0.01
		cfg.Stream = w.stored
		return cfg
	}
	w.config, w.warmup = small, small
	w.reference = func(ctx context.Context, seed int64) ([]byte, error) {
		cfg := small(seed)
		cfg.Workers, cfg.Stream = 1, false
		return render(ctx, cfg)
	}
	return w
}

func params(t *testing.T, measure time.Duration, trace bool) Params {
	return Params{Seed: 7, Measure: measure, Trace: trace, WorkDir: t.TempDir(), Log: io.Discard}
}

// TestEveryMetricPrinted runs every workload on tiny inputs, untraced
// and traced, and checks that each run prints every metric
// BENCHMARK.json names for it, each with its unit, and counts no
// failure.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	t.Chdir(t.TempDir())
	saved := servedScenarios
	servedScenarios = []string{scenario.Smoke}
	t.Cleanup(func() { servedScenarios = saved })

	runs := map[string]workload{
		"study-paper": func(ctx context.Context, p Params, res *Result) error {
			return runStudyWorkload(ctx, tiny(studyPaper), p, res)
		},
		"study-jobplane": func(ctx context.Context, p Params, res *Result) error {
			return runStudyWorkload(ctx, tiny(studyJobplane), p, res)
		},
		"serve-reports": runServeReports,
	}
	for name, run := range runs {
		for _, trace := range []bool{false, true} {
			res := newResult()
			if err := run(context.Background(), params(t, 3*time.Second, trace), res); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", name, trace, res.Attempted, res.Failed)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed with unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorruptReferenceCounted flips one byte of the study oracle and
// expects every study to count as failed.
func TestCorruptReferenceCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a study")
	}
	t.Chdir(t.TempDir())
	w := tiny(studyPaper)
	good := w.reference
	w.reference = func(ctx context.Context, seed int64) ([]byte, error) {
		ref, err := good(ctx, seed)
		if err == nil {
			ref[len(ref)/2] ^= 1
		}
		return ref, err
	}
	res := newResult()
	if err := runStudyWorkload(context.Background(), w, params(t, time.Millisecond, false), res); err != nil {
		t.Fatal(err)
	}
	if res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("attempted %d, failed %d: a corrupt reference must fail every study", res.Attempted, res.Failed)
	}
}

// TestServeFailuresCounted checks that a served body differing from the
// oracle by one byte, a shed (429) submission and a refused connection
// each count as a failed request.
func TestServeFailuresCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("populates a store")
	}
	saved := servedScenarios
	servedScenarios = []string{scenario.Smoke}
	t.Cleanup(func() { servedScenarios = saved })
	ctx := context.Background()
	srv, err := startServer(ctx, t.TempDir(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()

	read := op{kind: opReport, slot: 0, format: 0}
	if !srv.do(ctx, read, &outcome{}, time.Now()) {
		t.Fatal("a correct read failed the oracle")
	}
	srv.slots[0].body[0][0] ^= 1
	pr := srv.runPhase(ctx, []op{read}, 0)
	srv.slots[0].body[0][0] ^= 1
	if pr.failed != 1 {
		t.Errorf("read against a flipped oracle byte: %d failed, want 1", pr.failed)
	}

	// Fill the job queue with distinct studies, each long enough that
	// the queue stays full until the benchmark's submission arrives.
	for k := int64(0); ; k++ {
		_, _, err := srv.mgr.Submit(scenario.Smoke, 1000+k, []string{experiments.ExpTracking})
		if errors.Is(err, jobs.ErrQueueFull) {
			break
		}
		if err != nil || k > 20 {
			t.Fatalf("filling the queue: %v after %d submissions", err, k)
		}
	}
	var out outcome
	if srv.do(ctx, op{kind: opSubmit}, &out, time.Now()) || out.status != 429 {
		t.Errorf("submission to a full queue: ok %v, status %d, want a failed 429", out.ok, out.status)
	}

	refused := &server{url: "http://127.0.0.1:1", client: srv.client, slots: srv.slots}
	if refused.do(ctx, read, &outcome{}, time.Now()) {
		t.Error("a refused connection counted as a success")
	}
}
