// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed measuring time, checks every output it
// produced against an oracle, and prints one JSON result line as the last
// line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {NAME: {"value": V, "unit": U}}}
//
// With -trace 0 the metrics are the workload's end-to-end metrics,
// measured with no tracing. With -trace 1 the run records spans around
// the calls into each layer and prints the per-layer metrics instead.
// README.md lists the workloads, every metric and its unit.
//
// Usage (from the repository root; run.sh builds and invokes this):
//
//	perfbench --workload study-paper|study-jobplane|serve-reports --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Result is the benchmark's output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Params are the command-line inputs every workload receives.
type Params struct {
	Seed    int64
	Measure time.Duration
	Trace   bool
	// WorkDir is a private scratch directory under the working
	// directory; the workload may write there and nowhere else.
	WorkDir string
	// Log receives progress notes (standard error).
	Log io.Writer
}

// workload runs one named workload and fills res.
type workload func(ctx context.Context, p Params, res *Result) error

var workloads = map[string]workload{
	"study-paper":    runStudyPaper,
	"study-jobplane": runStudyJobplane,
	"serve-reports":  runServeReports,
}

func main() {
	res, err := run(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(args []string, log io.Writer) (*Result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(log)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %v)", *name, names)
	}
	if *seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return nil, errors.New("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-"+*name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	p := Params{
		Seed:    *seed,
		Measure: time.Duration(*seconds * float64(time.Second)),
		Trace:   *trace == 1,
		WorkDir: dir,
		Log:     log,
	}
	res := newResult()
	if err := w(context.Background(), p, res); err != nil {
		return nil, fmt.Errorf("%s: %w", *name, err)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", *name)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func newResult() *Result { return &Result{Metrics: map[string]Metric{}} }

// set records one metric.
func (r *Result) set(name, unit string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// fillMissing adds the metrics of sub that r lacks, and sub's counts of
// attempted and failed operations.
func (r *Result) fillMissing(sub *Result) {
	for name, m := range sub.Metrics {
		if _, ok := r.Metrics[name]; !ok {
			r.Metrics[name] = m
		}
	}
	r.Attempted += sub.Attempted
	r.Failed += sub.Failed
}
