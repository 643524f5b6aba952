package hsdir

import (
	"math/rand"
	"reflect"
	"testing"

	"torhs/internal/onion"
)

// compactTestRequests builds a request stream with repeated descriptor
// IDs and a mix of found/not-found hits.
func compactTestRequests(seed int64, n, distinct int) []Request {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]onion.DescriptorID, distinct)
	for i := range ids {
		f := onion.RandomFingerprint(rng)
		copy(ids[i][:], f[:])
	}
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			DescID: ids[rng.Intn(distinct)],
			Found:  rng.Intn(5) != 0,
		}
	}
	return reqs
}

// naiveFold is the reference every log query is checked against: a
// plain per-request fold of the raw stream, independent of RequestLog.
type naiveFold struct {
	counts       map[onion.DescriptorID]int
	total, found int
}

func foldRequests(reqs ...[]Request) naiveFold {
	ref := naiveFold{counts: make(map[onion.DescriptorID]int)}
	for _, rs := range reqs {
		for _, r := range rs {
			ref.counts[r.DescID]++
			ref.total++
			if r.Found {
				ref.found++
			}
		}
	}
	return ref
}

// logFrom returns a log restored from the reference's state.
func (ref naiveFold) logFrom() *RequestLog {
	l := NewRequestLog()
	l.RestoreCompact(ref.counts, ref.total, ref.found)
	return l
}

// assertMatchesFold requires every query of the log to agree with the
// naive fold of the same requests.
func assertMatchesFold(t *testing.T, ref naiveFold, l *RequestLog) {
	t.Helper()
	if got := l.Total(); got != ref.total {
		t.Errorf("Total = %d, want %d", got, ref.total)
	}
	if got := l.UniqueIDs(); got != len(ref.counts) {
		t.Errorf("UniqueIDs = %d, want %d", got, len(ref.counts))
	}
	want := 0.0
	if ref.total > 0 {
		want = float64(ref.found) / float64(ref.total)
	}
	if got := l.FoundFraction(); got != want {
		t.Errorf("FoundFraction = %v, want %v", got, want)
	}
	if got := l.CountsByID(); !reflect.DeepEqual(got, ref.counts) {
		t.Errorf("CountsByID diverged: %d vs %d entries", len(got), len(ref.counts))
	}
	gotEach := make(map[onion.DescriptorID]int)
	l.EachCount(func(id onion.DescriptorID, n int) { gotEach[id] += n })
	if !reflect.DeepEqual(gotEach, ref.counts) {
		t.Error("EachCount fold diverged from the reference counts")
	}
	counts, total, found := l.CompactState()
	if !reflect.DeepEqual(counts, ref.counts) || total != ref.total || found != ref.found {
		t.Errorf("CompactState = (%d ids, %d, %d), want (%d ids, %d, %d)",
			len(counts), total, found, len(ref.counts), ref.total, ref.found)
	}
}

func TestCompactLogAggregatesMatchRaw(t *testing.T) {
	reqs := compactTestRequests(1, 5000, 60)
	l := NewRequestLog()
	// Interleave single records and batches so both arrival paths fold.
	for i := 0; i < 100; i++ {
		l.Record(reqs[i])
	}
	l.RecordBatch(reqs[100:2000])
	for i := 2000; i < 2100; i++ {
		l.Record(reqs[i])
	}
	l.RecordBatch(reqs[2100:])
	l.RecordBatch(nil)
	assertMatchesFold(t, foldRequests(reqs), l)
	assertMatchesFold(t, foldRequests(nil), NewRequestLog())
}

// TestCompactMidStreamMatchesRaw is the trawl resume shape: a log's
// state is saved mid-stream, restored into a fresh log, and the rest of
// the stream folds on top.
func TestCompactMidStreamMatchesRaw(t *testing.T) {
	reqs := compactTestRequests(2, 2000, 40)
	first := NewRequestLog()
	first.RecordBatch(reqs[:1000])
	counts, total, found := first.CompactState()
	resumed := NewRequestLog()
	resumed.RestoreCompact(counts, total, found)
	resumed.RecordBatch(reqs[1000:1500])
	for _, r := range reqs[1500:] {
		resumed.Record(r)
	}
	assertMatchesFold(t, foldRequests(reqs), resumed)
	assertMatchesFold(t, foldRequests(reqs[:1000]), first)
}

func TestCompactStateRoundTrip(t *testing.T) {
	reqs := compactTestRequests(3, 1500, 30)
	// raw: the source folded the raw request stream; compact: the source
	// was itself restored from saved state and kept recording.
	for _, mode := range []string{"raw", "compact"} {
		t.Run(mode, func(t *testing.T) {
			src := NewRequestLog()
			if mode == "compact" {
				src = foldRequests(reqs[:700]).logFrom()
				src.RecordBatch(reqs[700:])
			} else {
				src.RecordBatch(reqs)
			}
			counts, total, found := src.CompactState()
			back := NewRequestLog()
			back.Record(reqs[0]) // restore replaces, it does not add
			back.RestoreCompact(counts, total, found)
			ref := foldRequests(reqs)
			assertMatchesFold(t, ref, back)
			// Both directions copy: mutating the caller's map afterwards
			// must reach neither log.
			for id := range counts {
				counts[id] += 99
				break
			}
			assertMatchesFold(t, ref, src)
			assertMatchesFold(t, ref, back)
		})
	}
}

// TestMergeMixedCompactAndRaw folds sources built from raw records and
// sources restored from saved state, plus the nil and self sources
// MergeAll must skip, and checks the result against the naive fold of
// every request involved.
func TestMergeMixedCompactAndRaw(t *testing.T) {
	reqs := compactTestRequests(4, 4000, 50)
	rawSrc := NewRequestLog()
	rawSrc.RecordBatch(reqs[:1000])
	restoredSrc := foldRequests(reqs[1000:2000]).logFrom()
	emptySrc := NewRequestLog()
	dst := NewRequestLog()
	dst.RecordBatch(reqs[2000:3000])

	dst.MergeAll([]*RequestLog{rawSrc, nil, restoredSrc, dst, emptySrc})
	// A second merge after more arrivals folds on top of the first.
	for _, r := range reqs[3000:3500] {
		dst.Record(r)
	}
	tail := NewRequestLog()
	tail.RecordBatch(reqs[3500:])
	dst.MergeAll([]*RequestLog{tail, dst})
	dst.MergeAll(nil)

	assertMatchesFold(t, foldRequests(reqs), dst)
	// Sources are left unchanged.
	assertMatchesFold(t, foldRequests(reqs[:1000]), rawSrc)
	assertMatchesFold(t, foldRequests(reqs[1000:2000]), restoredSrc)
	assertMatchesFold(t, foldRequests(nil), emptySrc)
}
