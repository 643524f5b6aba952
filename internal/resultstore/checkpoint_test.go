package resultstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"torhs/internal/fault"
)

// ckptState is a representative snapshot shape: nested maps, counters,
// non-finite floats, and exact instants.
type ckptState struct {
	Window  int
	Counts  map[string]int
	Ratio   float64
	At      time.Time
	Labels  []string
	Covered float64
}

func testState(window int) *ckptState {
	return &ckptState{
		Window:  window,
		Counts:  map[string]int{"descriptors": 17 * (window + 1), "requests": 5},
		Ratio:   math.Inf(1),
		At:      time.Date(2013, 2, 4, 0, 0, 0, 0, time.UTC).Add(time.Duration(window) * time.Hour),
		Labels:  []string{"a", "b"},
		Covered: 0.25,
	}
}

func openCkpt(t *testing.T) (*Store, *CheckpointSet) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Checkpoints(testKey("trawl"))
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestCheckpointRoundTrip(t *testing.T) {
	_, c := openCkpt(t)

	var none ckptState
	if _, ok, err := c.Latest(&none); err != nil || ok {
		t.Fatalf("Latest on empty set = ok=%v err=%v, want clean miss", ok, err)
	}

	for w := 0; w < 3; w++ {
		if err := c.Save(w, testState(w)); err != nil {
			t.Fatalf("Save(%d): %v", w, err)
		}
	}
	var got ckptState
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 2 {
		t.Fatalf("Latest = (%d, %v, %v), want window 2", w, ok, err)
	}
	want := testState(2)
	if got.Window != want.Window || got.Counts["descriptors"] != want.Counts["descriptors"] ||
		!math.IsInf(got.Ratio, 1) || !got.At.Equal(want.At) {
		t.Fatalf("snapshot did not round-trip: %+v", got)
	}
}

func TestCheckpointPruneKeepsTwo(t *testing.T) {
	_, c := openCkpt(t)
	for w := 0; w < 5; w++ {
		if err := c.Save(w, testState(w)); err != nil {
			t.Fatal(err)
		}
	}
	wins, err := c.windows()
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 || wins[0] != 3 || wins[1] != 4 {
		t.Fatalf("windows after prune = %v, want [3 4]", wins)
	}
}

func TestCheckpointCorruptFallsBack(t *testing.T) {
	s, c := openCkpt(t)
	if err := c.Save(1, testState(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(2, testState(2)); err != nil {
		t.Fatal(err)
	}
	// Tear the newest snapshot: flip payload bytes behind the header.
	path := c.winPath(2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var got ckptState
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 1 {
		t.Fatalf("Latest = (%d, %v, %v), want fallback to window 1", w, ok, err)
	}
	if got.Window != 1 {
		t.Fatalf("snapshot window = %d, want 1", got.Window)
	}
	// The torn file is quarantined, not left to poison the next run.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn checkpoint still present: %v", err)
	}
	q, err := filepath.Glob(filepath.Join(s.Dir(), "quarantine", "*.ckpt"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine glob = %v, %v; want one file", q, err)
	}
}

func TestCheckpointClear(t *testing.T) {
	_, c := openCkpt(t)
	if err := c.Save(0, testState(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	var got ckptState
	if _, ok, err := c.Latest(&got); err != nil || ok {
		t.Fatalf("Latest after Clear = ok=%v err=%v, want miss", ok, err)
	}
}

func TestCheckpointSaveFaultIsTransient(t *testing.T) {
	_, c := openCkpt(t)
	in := fault.New(1)
	if err := in.Set(fault.SiteCheckpoint, fault.Rule{Mode: fault.ModeErr, At: 1}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })

	err := c.Save(0, testState(0))
	if err == nil {
		t.Fatal("Save under an armed fault succeeded")
	}
	// Second attempt (the retry) goes through.
	if err := c.Save(0, testState(0)); err != nil {
		t.Fatalf("retry Save: %v", err)
	}
}

func TestOpenQuarantinesCorruptStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("scan")
	if _, err := s.Put(k, testDoc("scan")); err != nil {
		t.Fatal(err)
	}
	// Tear the object and corrupt the index entry on disk.
	var objPath string
	filepath.Walk(filepath.Join(dir, "objects"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".json") {
			objPath = p
		}
		return nil
	})
	if objPath == "" {
		t.Fatal("no object written")
	}
	if err := os.WriteFile(objPath, []byte(`{"torn":`), 0o644); err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "index", k.Scenario, k.Experiment+".json")
	if err := os.WriteFile(idxPath, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: both corruptions move to quarantine with reasons.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over corrupt store: %v", err)
	}
	if _, err := os.Stat(objPath); !os.IsNotExist(err) {
		t.Fatal("torn object survived the startup scan")
	}
	if _, err := os.Stat(idxPath); !os.IsNotExist(err) {
		t.Fatal("corrupt index entry survived the startup scan")
	}
	q, err := filepath.Glob(filepath.Join(dir, "quarantine", "*.json"))
	if err != nil || len(q) != 2 {
		t.Fatalf("quarantined files = %v, want 2", q)
	}
	for _, f := range q {
		if _, err := os.Stat(f + ".reason"); err != nil {
			t.Errorf("missing reason sidecar for %s", f)
		}
	}
	// The store now reads as a clean miss, not an error.
	if _, _, ok, err := s2.Get(k); err != nil || ok {
		t.Fatalf("Get after quarantine = ok=%v err=%v, want clean miss", ok, err)
	}
}

func TestWriteAtomicFaultSites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(1)
	if err := in.Set(fault.SiteStoreRename, fault.Rule{Mode: fault.ModeErr, At: 1}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })

	k := testKey("scan")
	if _, err := s.Put(k, testDoc("scan")); err == nil {
		t.Fatal("Put under an armed rename fault succeeded")
	}
	// The failed write left no temp litter and no partial object.
	var tmps []string
	filepath.Walk(s.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && strings.Contains(filepath.Base(p), ".tmp-") {
			tmps = append(tmps, p)
		}
		return nil
	})
	if len(tmps) != 0 {
		t.Fatalf("temp litter after failed write: %v", tmps)
	}
	// Retrying succeeds and the store is consistent.
	if _, err := s.Put(k, testDoc("scan")); err != nil {
		t.Fatalf("retry Put: %v", err)
	}
	if _, _, ok, err := s.Get(k); err != nil || !ok {
		t.Fatalf("Get after retried Put = ok=%v err=%v", ok, err)
	}
}

// journalState is a toy Incremental state: an append-only list whose
// saves persist only the items added since the last successful save.
type journalState struct {
	items []int64
	saved int
}

type journalBase struct{ Items []int64 }

type journalDelta struct {
	From  int
	Items []int64
}

func (j *journalState) CheckpointBase() any { return &journalBase{Items: j.items} }

func (j *journalState) CheckpointDelta() any {
	return &journalDelta{From: j.saved, Items: j.items[j.saved:]}
}

// grow appends the items of one window: deterministic values, so every
// window's expected contents are recomputable.
func (j *journalState) grow(window int) {
	for k := 0; k < 20; k++ {
		j.items = append(j.items, int64(1000*window+k))
	}
}

func (b *journalBase) ApplyCheckpointDelta(decode func(any) error) error {
	var d journalDelta
	if err := decode(&d); err != nil {
		return err
	}
	if d.From != len(b.Items) {
		return fmt.Errorf("delta extends %d items, base has %d", d.From, len(b.Items))
	}
	b.Items = append(b.Items, d.Items...)
	return nil
}

// saveJournal saves windows 0..last of a journalState that starts with
// a 1000-item prefix, returning the final state.
func saveJournal(t *testing.T, c *CheckpointSet, last int) *journalState {
	t.Helper()
	j := &journalState{}
	for k := 0; k < 1000; k++ {
		j.items = append(j.items, int64(k))
	}
	for w := 0; w <= last; w++ {
		j.grow(w)
		if err := c.Save(w, j); err != nil {
			t.Fatalf("Save(%d): %v", w, err)
		}
		j.saved = len(j.items)
	}
	return j
}

// journalAt is the expected contents after window w.
func journalAt(w int) []int64 {
	j := &journalState{}
	for k := 0; k < 1000; k++ {
		j.items = append(j.items, int64(k))
	}
	for i := 0; i <= w; i++ {
		j.grow(i)
	}
	return j.items
}

// fileKinds reads every stored file's header: window -> delta?.
func fileKinds(t *testing.T, c *CheckpointSet) map[int]bool {
	t.Helper()
	wins, err := c.windows()
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[int]bool, len(wins))
	for _, w := range wins {
		f, err := c.read(w)
		if err != nil {
			t.Fatalf("read window %d: %v", w, err)
		}
		kinds[w] = f.delta
	}
	return kinds
}

func bases(kinds map[int]bool) []int {
	var out []int
	for w, delta := range kinds {
		if !delta {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func quarantined(t *testing.T, s *Store) []string {
	t.Helper()
	q, err := filepath.Glob(filepath.Join(s.Dir(), "quarantine", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(q)
	return q
}

func TestCheckpointDeltaChainRoundTrip(t *testing.T) {
	_, c := openCkpt(t)
	saveJournal(t, c, 40)
	kinds := fileKinds(t, c)
	if !kinds[40] {
		t.Fatalf("window 40 stored as a base; want a delta (kinds %v)", kinds)
	}
	if b := bases(kinds); len(b) != 2 {
		t.Fatalf("bases on disk = %v, want the current one and its predecessor", b)
	}

	var got journalBase
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 40 {
		t.Fatalf("Latest = (%d, %v, %v), want window 40", w, ok, err)
	}
	if !reflect.DeepEqual(got.Items, journalAt(40)) {
		t.Fatalf("chain replay = %d items, want %d", len(got.Items), len(journalAt(40)))
	}
}

// TestCheckpointRebaseRule pins the rebase rule: a new base is written
// exactly when the deltas since the current base add up to at least its
// size, so bases are geometric and the total bytes linear.
func TestCheckpointRebaseRule(t *testing.T) {
	_, c := openCkpt(t)
	j := &journalState{}
	for k := 0; k < 1000; k++ {
		j.items = append(j.items, int64(k))
	}
	var baseSize, deltaSum int64
	rebases := 0
	for w := 0; w < 200; w++ {
		j.grow(w)
		wantBase := w == 0 || deltaSum >= baseSize
		if err := c.Save(w, j); err != nil {
			t.Fatal(err)
		}
		j.saved = len(j.items)
		f, err := c.read(w)
		if err != nil {
			t.Fatal(err)
		}
		if f.delta == wantBase {
			t.Fatalf("window %d: delta=%v, want base=%v (deltas %d vs base %d)", w, f.delta, wantBase, deltaSum, baseSize)
		}
		if wantBase {
			baseSize, deltaSum = f.size, 0
			rebases++
		} else {
			if f.parent != w-1 {
				t.Fatalf("delta %d extends %d, want %d", w, f.parent, w-1)
			}
			deltaSum += f.size
		}
	}
	if rebases < 3 || rebases > 15 {
		t.Fatalf("%d rebases over 200 windows; want a handful (geometric bases)", rebases)
	}
}

func TestCheckpointLatestTransientReadKeepsFile(t *testing.T) {
	s, c := openCkpt(t)
	saveJournal(t, c, 5)
	before, err := c.windows()
	if err != nil {
		t.Fatal(err)
	}

	in := fault.New(1)
	if err := in.Set(fault.SiteStoreRead, fault.Rule{Mode: fault.ModeErr, At: 1}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	t.Cleanup(func() { fault.Install(prev) })

	var got journalBase
	if _, _, err := c.Latest(&got); !errors.Is(err, fault.Transient) {
		t.Fatalf("Latest under a transient read fault = %v, want a fault.Transient error", err)
	}
	after, err := c.windows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("transient read changed the set: %v -> %v", before, after)
	}
	if q := quarantined(t, s); len(q) != 0 {
		t.Fatalf("transient read quarantined %v", q)
	}
	// The retry sees the whole chain.
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 5 {
		t.Fatalf("retry Latest = (%d, %v, %v), want window 5", w, ok, err)
	}
	if !reflect.DeepEqual(got.Items, journalAt(5)) {
		t.Fatal("retry Latest returned the wrong state")
	}
}

func TestCheckpointCorruptMidChainDelta(t *testing.T) {
	s, c := openCkpt(t)
	saveJournal(t, c, 40)
	kinds := fileKinds(t, c)
	cur := bases(kinds)[1]
	var chain []int
	for w := cur + 1; w <= 40; w++ {
		chain = append(chain, w)
	}
	if len(chain) < 3 {
		t.Fatalf("chain above base %d too short for a mid-chain tear: %v", cur, chain)
	}
	bad := chain[len(chain)/2]
	corruptFile(t, c.winPath(bad))

	var got journalBase
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != bad-1 {
		t.Fatalf("Latest = (%d, %v, %v), want fallback to the last valid delta %d", w, ok, err, bad-1)
	}
	if !reflect.DeepEqual(got.Items, journalAt(bad-1)) {
		t.Fatal("fallback state is not the chain up to the last valid delta")
	}
	// The torn delta and every later one moved to quarantine together.
	if q := quarantined(t, s); len(q) != 40-bad+1 {
		t.Fatalf("quarantined %d files, want %d (windows %d..40)", len(q), 40-bad+1, bad)
	}
	for w := bad; w <= 40; w++ {
		if _, err := os.Stat(c.winPath(w)); !os.IsNotExist(err) {
			t.Fatalf("window %d survived the chain break", w)
		}
	}
	// The chain keeps growing from the fallback point.
	j := &journalState{items: got.Items, saved: len(got.Items)}
	j.grow(bad)
	if err := c.Save(bad, j); err != nil {
		t.Fatal(err)
	}
	var again journalBase
	if w, ok, err := c.Latest(&again); err != nil || !ok || w != bad {
		t.Fatalf("Latest after re-save = (%d, %v, %v), want %d", w, ok, err, bad)
	}
	if !reflect.DeepEqual(again.Items, journalAt(bad)) {
		t.Fatal("re-extended chain replays wrong")
	}
}

func TestCheckpointCorruptBaseFallsBackToPreviousBase(t *testing.T) {
	s, c := openCkpt(t)
	saveJournal(t, c, 40)
	b := bases(fileKinds(t, c))
	prevBase, cur := b[0], b[1]
	corruptFile(t, c.winPath(cur))

	var got journalBase
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != prevBase {
		t.Fatalf("Latest = (%d, %v, %v), want fallback to the previous base %d", w, ok, err, prevBase)
	}
	if !reflect.DeepEqual(got.Items, journalAt(prevBase)) {
		t.Fatal("previous base decoded wrong")
	}
	// The torn base takes its deltas (orphans now) with it.
	if q := quarantined(t, s); len(q) != 40-cur+1 {
		t.Fatalf("quarantined %d files, want %d", len(q), 40-cur+1)
	}
}

func TestCheckpointDeltaWithoutApplierErrors(t *testing.T) {
	s, c := openCkpt(t)
	saveJournal(t, c, 3)
	var plain struct{ Items []int64 }
	if w, ok, err := c.Latest(&plain); err == nil {
		t.Fatalf("Latest into a target that cannot apply deltas succeeded: (%d, %v)", w, ok)
	}
	if q := quarantined(t, s); len(q) != 0 {
		t.Fatalf("a caller error quarantined %v", q)
	}
}

// TestCheckpointRetriedDeltaIsIdentical fails a delta save mid-write
// and retries it: the state's mark has not advanced, so the retry
// writes the same delta and the chain replays exactly.
func TestCheckpointRetriedDeltaIsIdentical(t *testing.T) {
	_, c := openCkpt(t)
	j := saveJournal(t, c, 2)
	j.grow(3)
	in := fault.New(1)
	if err := in.Set(fault.SiteStoreRename, fault.Rule{Mode: fault.ModeErr, At: 1}); err != nil {
		t.Fatal(err)
	}
	prev := fault.Active()
	fault.Install(in)
	err := c.Save(3, j)
	fault.Install(prev)
	if err == nil {
		t.Fatal("Save under an armed rename fault succeeded")
	}
	if err := c.Save(3, j); err != nil {
		t.Fatalf("retry Save: %v", err)
	}
	var got journalBase
	if w, ok, err := c.Latest(&got); err != nil || !ok || w != 3 {
		t.Fatalf("Latest = (%d, %v, %v), want window 3", w, ok, err)
	}
	if !reflect.DeepEqual(got.Items, journalAt(3)) {
		t.Fatal("retried delta replays wrong")
	}
}

// TestCheckpointUnappliableDeltaFallsBack covers a delta that passes
// its hash but that the target rejects: it is quarantined with its
// successors and the state is rebuilt from the chain before it.
func TestCheckpointUnappliableDeltaFallsBack(t *testing.T) {
	s, c := openCkpt(t)
	j := saveJournal(t, c, 5)
	// A mark that skipped ahead: this delta claims to extend more items
	// than the chain holds.
	j.grow(6)
	j.saved++
	if err := c.Save(6, j); err != nil {
		t.Fatal(err)
	}
	j.saved = len(j.items)
	j.grow(7)
	if err := c.Save(7, j); err != nil {
		t.Fatal(err)
	}

	var got journalBase
	w, ok, err := c.Latest(&got)
	if err != nil || !ok || w != 5 {
		t.Fatalf("Latest = (%d, %v, %v), want fallback to window 5", w, ok, err)
	}
	if !reflect.DeepEqual(got.Items, journalAt(5)) {
		t.Fatal("state after the rejected delta is not the chain up to window 5")
	}
	if q := quarantined(t, s); len(q) != 2 {
		t.Fatalf("quarantined %v, want windows 6 and 7", q)
	}
}
