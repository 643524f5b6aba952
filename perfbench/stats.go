package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler polls the live Go heap — the bytes the latest garbage
// collection found reachable — while a measured operation runs and keeps
// the peak. Live bytes do not depend on how much garbage is waiting to
// be swept, so the peak repeats far better than the total heap's. A
// runtime/metrics read does not stop the world, so the sampler costs the
// measured code almost nothing.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler goroutine until done closes
}

const heapMetric = "/gc/heap/live:bytes"

// heapSampleEvery is the polling period; it is far shorter than the
// time between two collections in a study.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(sample)
		h.peak = max(h.peak, sample[0].Value.Uint64())
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeDelta reports allocation and GC activity between two points.
type runtimeDelta struct{ before runtime.MemStats }

func startRuntimeDelta() *runtimeDelta {
	d := &runtimeDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// record adds go.alloc_mb, go.gc_cycles and go.gc_pause_ms.
func (d *runtimeDelta) record(res *Result) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.set("go.alloc_mb", "MiB", float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20))
	res.set("go.gc_cycles", "count", float64(after.NumGC-d.before.NumGC))
	res.set("go.gc_pause_ms", "ms", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e6)
}

// repeatSetup runs a set-up step n times and returns the median time.
func repeatSetup(ctx context.Context, n int, step func(ctx context.Context) error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := step(ctx); err != nil {
			return 0, err
		}
		ts = append(ts, seconds(time.Since(t0)))
	}
	return median(ts), nil
}
