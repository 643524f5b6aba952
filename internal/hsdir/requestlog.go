package hsdir

import (
	"sync"

	"torhs/internal/onion"
)

// Request is one descriptor fetch observed by a directory.
type Request struct {
	DescID onion.DescriptorID
	// Found reports whether a live descriptor was stored under the ID.
	// The paper found 80% of live-network requests were for descriptors
	// that were never published.
	Found bool
}

// RequestLog accumulates descriptor fetches as per-descriptor-ID request
// counts plus the total and found tallies — exactly what the paper's
// popularity estimate reads ("the request rate for hidden service
// descriptors by clients"). Each request folds into the counts on
// arrival and is not retained, so the log's footprint is bounded by the
// number of distinct descriptor IDs instead of the request volume. It is
// safe for concurrent use and supports merging, since the trawling
// attack aggregates logs from many attacker-operated directories.
type RequestLog struct {
	mu    sync.Mutex
	perID map[onion.DescriptorID]int
	total int
	found int
}

// NewRequestLog returns an empty log.
func NewRequestLog() *RequestLog {
	return &RequestLog{perID: make(map[onion.DescriptorID]int)}
}

// foldLocked adds one request to the tallies. Callers hold l.mu.
func (l *RequestLog) foldLocked(r Request) {
	l.perID[r.DescID]++
	l.total++
	if r.Found {
		l.found++
	}
}

// Record folds one request observation. Exposed for components (such as
// the simnet client driver) that observe fetches outside a Directory.
func (l *RequestLog) Record(r Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.foldLocked(r)
}

// RecordBatch folds a batch of request observations, taking the lock
// exactly once. This is how DriveWindow lands a window's records in the
// per-directory logs: fetches record lock-free into local buffers during
// the window and fold here in one call. Once every ID in the batch has
// been seen the call performs zero heap allocations.
func (l *RequestLog) RecordBatch(batch []Request) {
	if len(batch) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range batch {
		l.foldLocked(batch[i])
	}
}

// Total returns the total number of requests.
func (l *RequestLog) Total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// UniqueIDs returns the number of distinct descriptor IDs requested.
func (l *RequestLog) UniqueIDs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.perID)
}

// FoundFraction returns the fraction of requests that hit a stored
// descriptor (0 when the log is empty).
func (l *RequestLog) FoundFraction() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.total == 0 {
		return 0
	}
	return float64(l.found) / float64(l.total)
}

// CountsByID returns a copy of the per-descriptor-ID request counts.
// Callers that only iterate should prefer the zero-copy EachCount.
func (l *RequestLog) CountsByID() map[onion.DescriptorID]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return copyCounts(l.perID)
}

// EachCount visits the per-descriptor-ID request counts without copying
// the map, in unspecified order. The log's lock is held for the whole
// iteration; fn must not call back into the log.
func (l *RequestLog) EachCount(fn func(id onion.DescriptorID, n int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	//torhs:ignore detorder unordered visiting is EachCount's documented contract; deterministic consumers must fold commutatively (popularity.Resolution.addCount is the exemplar)
	for id, n := range l.perID {
		fn(id, n)
	}
}

// CompactState returns a copy of the log's whole state — the per-ID
// counts, the total request count, and the found count. This is the
// form trawl snapshots and spilled harvests persist: it reconstructs
// every query exactly.
func (l *RequestLog) CompactState() (counts map[onion.DescriptorID]int, total, found int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return copyCounts(l.perID), l.total, l.found
}

// RestoreCompact replaces the log's contents with the given state. The
// counts map is copied; the caller keeps ownership of its argument.
func (l *RequestLog) RestoreCompact(counts map[onion.DescriptorID]int, total, found int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.perID = copyCounts(counts)
	l.total = total
	l.found = found
}

// MergeAll folds every log in others into l, skipping nil sources and l
// itself, with one snapshot pass over the sources and a single fold
// under l's lock. This is the one-merge-per-step path of the trawl
// read-out. Merging sums per-ID counts, which is order-insensitive by
// construction, so it preserves the shard-merge determinism contract.
// The source logs are left unchanged.
func (l *RequestLog) MergeAll(others []*RequestLog) {
	// Snapshot every source under its own lock only, then fold under
	// l's lock only — the two locks are never held together, so there
	// is no lock order to deadlock on.
	counts := make(map[onion.DescriptorID]int)
	total, found := 0, 0
	for _, o := range others {
		if o == nil || o == l {
			continue
		}
		o.mu.Lock()
		for id, n := range o.perID {
			counts[id] += n
		}
		total += o.total
		found += o.found
		o.mu.Unlock()
	}
	if total == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for id, n := range counts {
		l.perID[id] += n
	}
	l.total += total
	l.found += found
}

// copyCounts returns a copy of m (never nil).
func copyCounts(m map[onion.DescriptorID]int) map[onion.DescriptorID]int {
	out := make(map[onion.DescriptorID]int, len(m))
	for id, n := range m {
		out[id] = n
	}
	return out
}
