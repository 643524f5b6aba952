package hsdir

import (
	"sync"
	"testing"

	"torhs/internal/onion"
)

func idWithByte(b byte) onion.DescriptorID {
	var id onion.DescriptorID
	id[0] = b
	return id
}

// TestMergeBulkSemantics checks the single-lock bulk merge preserves the
// per-record semantics: totals, per-ID counts, and the found tally.
func TestMergeBulkSemantics(t *testing.T) {
	src := NewRequestLog()
	for i := 0; i < 10; i++ {
		src.Record(Request{DescID: idWithByte(byte(i % 3)), Found: i%2 == 0})
	}
	dst := NewRequestLog()
	dst.Record(Request{DescID: idWithByte(0), Found: true})

	dst.MergeAll([]*RequestLog{src})
	if got := dst.Total(); got != 11 {
		t.Fatalf("Total = %d, want 11", got)
	}
	if got := dst.UniqueIDs(); got != 3 {
		t.Fatalf("UniqueIDs = %d, want 3", got)
	}
	counts := dst.CountsByID()
	if counts[idWithByte(0)] != 5 { // 4 from src (i=0,3,6,9) + 1 own
		t.Fatalf("counts[id0] = %d, want 5", counts[idWithByte(0)])
	}
	// found: src has i=0,2,4,6,8 -> 5, dst 1 -> 6 of 11.
	if got := dst.FoundFraction(); got != 6.0/11.0 {
		t.Fatalf("FoundFraction = %v, want %v", got, 6.0/11.0)
	}
	// Source untouched.
	if src.Total() != 10 {
		t.Fatalf("source mutated: Total = %d", src.Total())
	}
}

// TestMergeSelfAndNilNoop guards the degenerate inputs.
func TestMergeSelfAndNilNoop(t *testing.T) {
	l := NewRequestLog()
	l.Record(Request{DescID: idWithByte(1), Found: true})
	l.MergeAll(nil)
	l.MergeAll([]*RequestLog{nil, l})
	if l.Total() != 1 || l.UniqueIDs() != 1 || l.FoundFraction() != 1 {
		t.Fatalf("self/nil merge corrupted log: total=%d unique=%d", l.Total(), l.UniqueIDs())
	}
}

// TestMergeConcurrent exercises the trawl pattern under the race
// detector: many directories' logs folded into one harvest log while
// recorders still append.
func TestMergeConcurrent(t *testing.T) {
	const sources = 8
	const perSource = 200
	dst := NewRequestLog()
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		src := NewRequestLog()
		for i := 0; i < perSource; i++ {
			src.Record(Request{DescID: idWithByte(byte(s)), Found: true})
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			dst.MergeAll([]*RequestLog{src})
		}()
		go func(s int) {
			defer wg.Done()
			dst.Record(Request{DescID: idWithByte(byte(s))})
		}(s)
	}
	wg.Wait()
	if got := dst.Total(); got != sources*perSource+sources {
		t.Fatalf("Total = %d, want %d", got, sources*perSource+sources)
	}
}
