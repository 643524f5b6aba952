package tracking

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"torhs/internal/consensus"
	"torhs/internal/fault"
	"torhs/internal/resultstore"
)

// saveRec is one successful checkpoint save as it landed on disk.
type saveRec struct {
	win   int
	delta bool
	size  int64
}

// recordingSet is a Checkpointer over a real store that records the
// kind (base or delta) and size of every file a save wrote.
type recordingSet struct {
	set   *resultstore.CheckpointSet
	dir   string
	saves []saveRec
}

func newRecordingSet(t *testing.T) *recordingSet {
	t.Helper()
	s, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := resultstore.Key{
		Experiment:  "ckpt-tracking",
		Scenario:    "test",
		Params:      "journal",
		CodeVersion: "test",
	}
	set, err := s.Checkpoints(k)
	if err != nil {
		t.Fatal(err)
	}
	return &recordingSet{set: set, dir: filepath.Join(s.Dir(), "checkpoints", k.CacheKey())}
}

func (r *recordingSet) path(w int) string {
	return filepath.Join(r.dir, fmt.Sprintf("win-%08d.ckpt", w))
}

func (r *recordingSet) Save(_ context.Context, w int, s any) error {
	if err := r.set.Save(w, s); err != nil {
		return err
	}
	data, err := os.ReadFile(r.path(w))
	if err != nil {
		return err
	}
	r.saves = append(r.saves, saveRec{win: w, delta: isDelta(data), size: int64(len(data))})
	return nil
}

func (r *recordingSet) Latest(_ context.Context, s any) (int, bool, error) { return r.set.Latest(s) }

func isDelta(data []byte) bool { return bytes.HasPrefix(data, []byte("torhs-ckpt-delta/")) }

func (r *recordingSet) bytes() int64 {
	var n int64
	for _, s := range r.saves {
		n += s.size
	}
	return n
}

// rebases lists the windows saved as bases after the first one.
func (r *recordingSet) rebases() []int {
	var out []int
	for i, s := range r.saves {
		if i > 0 && !s.delta {
			out = append(out, s.win)
		}
	}
	return out
}

// journalFixture is one 120-day scenario, its uninterrupted report, and
// the save layout of an uninterrupted checkpointed run at cadence every.
type journalFixture struct {
	sc     *Scenario
	an     *Analyzer
	docs   []*consensus.Document
	ref    *Report
	layout *recordingSet
	every  int
}

func newJournalFixture(t *testing.T, every int) *journalFixture {
	t.Helper()
	sc, an, from, to := ckptScenario(t)
	ref, err := an.Analyze(context.Background(), sc.History, sc.Target, from, to)
	if err != nil {
		t.Fatal(err)
	}
	f := &journalFixture{sc: sc, an: an, docs: sc.History.Range(from, to), ref: ref, layout: newRecordingSet(t), every: every}
	got, err := an.AnalyzeSource(context.Background(), f.source(), sc.Target, f.layout, every, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("checkpointed analysis diverged from plain Analyze")
	}
	if len(f.layout.rebases()) == 0 {
		t.Fatalf("no rebase in %d saves; the fixture cannot exercise chains past a rebase", len(f.layout.saves))
	}
	return f
}

func (f *journalFixture) source() DocSource { return &sliceSource{docs: f.docs} }

// midChain returns a delta save window with deltas on both sides of it,
// after the first rebase.
func (f *journalFixture) midChain(t *testing.T) int {
	t.Helper()
	saves := f.layout.saves
	for i, s := range saves {
		if !s.delta && i > 0 {
			// Walk the chain this rebase starts and take its middle.
			j := i + 1
			for j < len(saves) && saves[j].delta {
				j++
			}
			if j-i-1 >= 3 {
				return saves[i+(j-i)/2].win
			}
		}
	}
	t.Fatal("no chain of three deltas after a rebase")
	return 0
}

func TestTrackingJournalChainShape(t *testing.T) {
	f := newJournalFixture(t, 1)
	saves := f.layout.saves
	if saves[0].delta {
		t.Fatal("first save of a fresh set must be a base")
	}
	deltas := 0
	for _, s := range saves {
		if s.delta {
			deltas++
		}
	}
	if deltas < len(saves)*3/4 {
		t.Fatalf("only %d of %d saves were deltas", deltas, len(saves))
	}
	// Delta saves cost one window: far below the base they extend.
	last := saves[len(saves)-1]
	var base saveRec
	for _, s := range saves {
		if !s.delta {
			base = s
		}
	}
	if last.delta && last.size*10 > base.size {
		t.Fatalf("last delta is %d bytes against a %d-byte base", last.size, base.size)
	}
}

// crashAndResume hard-stops a checkpointed sweep entering document
// stopDoc, then resumes over the same set; the resumed report must equal
// the uninterrupted one. inspect sees the set as the crash left it.
func (f *journalFixture) crashAndResume(t *testing.T, stopDoc int, inspect func(*recordingSet)) {
	t.Helper()
	set := newRecordingSet(t)
	in := fault.New(1)
	if err := in.Set(fault.SiteTrackingWindow, fault.Rule{Mode: fault.ModeCrash, At: stopDoc + 1}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	func() {
		defer func() {
			if _, ok := recover().(fault.CrashPoint); !ok {
				t.Fatal("analysis did not crash at the window site")
			}
		}()
		f.an.AnalyzeSource(context.Background(), f.source(), f.sc.Target, set, f.every, false)
	}()
	fault.Install(prev)
	inspect(set)

	got, err := f.an.AnalyzeSource(context.Background(), f.source(), f.sc.Target, set, f.every, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.ref, got) {
		t.Fatal("resumed analysis diverged from uninterrupted run")
	}
}

func TestTrackingJournalCrashResume(t *testing.T) {
	f := newJournalFixture(t, 1)
	mid := f.midChain(t)
	rebase := f.layout.rebases()[0]
	for _, tc := range []struct {
		name  string
		win   int  // the newest saved window when the crash lands
		delta bool // what that window's file must be
	}{
		{"mid-chain", mid, true},
		{"at-rebase", rebase, false},
		{"first-delta-after-rebase", rebase + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f.crashAndResume(t, tc.win+1, func(set *recordingSet) {
				last := set.saves[len(set.saves)-1]
				if last.win != tc.win || last.delta != tc.delta {
					t.Fatalf("crash left newest save %+v, want window %d delta=%v", last, tc.win, tc.delta)
				}
			})
		})
	}
}

// cancelAndResume cancels a checkpointed sweep after cancelAt documents
// folded, checks that the cancellation flush landed on flushWin as the
// expected kind, and resumes to the uninterrupted report.
func (f *journalFixture) cancelAndResume(t *testing.T, cancelAt, flushWin int, flushDelta bool) {
	t.Helper()
	set := newRecordingSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &cancellingSource{DocSource: f.source(), cancelAt: cancelAt, cancel: cancel}
	if _, err := f.an.AnalyzeSource(ctx, cs, f.sc.Target, set, f.every, false); err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	last := set.saves[len(set.saves)-1]
	if last.win != flushWin || last.delta != flushDelta {
		t.Fatalf("cancellation flush wrote %+v, want window %d delta=%v", last, flushWin, flushDelta)
	}
	got, err := f.an.AnalyzeSource(context.Background(), f.source(), f.sc.Target, set, f.every, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.ref, got) {
		t.Fatal("post-cancellation resume diverged from uninterrupted run")
	}
}

func TestTrackingJournalCancelFlush(t *testing.T) {
	// Cadence 3, so a flush lands between two scheduled saves.
	f := newJournalFixture(t, 3)
	mid := f.midChain(t)
	rebase := f.layout.rebases()[0]
	t.Run("mid-chain", func(t *testing.T) {
		// Fold one document past a mid-chain save; the flush extends
		// the chain by that document.
		f.cancelAndResume(t, mid+2, mid+1, true)
	})
	t.Run("after-rebase", func(t *testing.T) {
		// Fold one document past a rebase; the flush is the new chain's
		// first delta.
		f.cancelAndResume(t, rebase+2, rebase+1, true)
	})
}

// TestTrackingJournalWriteVolumeLinear pins the write volume to linear
// growth in the time axis: sweeping twice the windows at cadence 1 must
// write at most 2.5x the bytes (whole-state snapshots write about 3x).
func TestTrackingJournalWriteVolumeLinear(t *testing.T) {
	const n = 150
	written := func(days int) int64 {
		cfg := DefaultScenarioConfig(50)
		cfg.Days = days
		sc, src, err := NewScenarioSource(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		an, err := NewAnalyzer(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		set := newRecordingSet(t)
		if _, err := an.AnalyzeSource(context.Background(), src, sc.Target, set, 1, false); err != nil {
			t.Fatal(err)
		}
		return set.bytes()
	}
	one, two := written(n), written(2*n)
	ratio := float64(two) / float64(one)
	t.Logf("checkpoint bytes: %d windows %d, %d windows %d (%.2fx)", n, one, 2*n, two, ratio)
	if ratio > 2.5 {
		t.Fatalf("doubling the time axis multiplied checkpoint bytes by %.2f (> 2.5): saves are not O(one window)", ratio)
	}
}
