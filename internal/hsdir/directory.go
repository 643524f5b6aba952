package hsdir

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"torhs/internal/onion"
)

// Directory is the descriptor store operated by one HSDir relay.
// Descriptors expire after TTL (24 h on the 2013 network: directories
// responsible for the previous time period erase old descriptors). Every
// fetch is recorded in the request log — this is exactly the vantage point
// the paper's popularity measurement exploits.
//
// The store is a pointer-free entry arena plus an open-addressed probe
// table of int32 references keyed by the descriptor IDs' own leading
// bytes (the same scheme as the popularity index): descriptor IDs are
// SHA-1 outputs, already uniformly distributed, so lookups need no hash
// function and no map. Each distinct ID ever published owns exactly one
// arena entry for the directory's lifetime; expiry tombstones the entry
// in place and republication revives it. The arena doubles as the
// "published ever" set of the paper's 10% statistic, and the IDs ever
// fetched are a bitset over arena indexes — replacing the two
// map[DescriptorID]bool sets of the map-based store.
type Directory struct {
	mu sync.Mutex

	fingerprint onion.Fingerprint
	ttl         time.Duration

	slots   []int32 // 1-based indexes into entries; 0 = empty
	mask    uint64
	entries []dirEntry
	descs   []*onion.Descriptor // descs[i] belongs to entries[i]
	live    int

	// requested marks arena indexes whose descriptor was ever fetched
	// while stored — the numerator of the paper's "only 10% of published
	// descriptors were ever requested" statistic. Bits are set with
	// atomic OR so the lock-free Probe path can record them while other
	// probes run.
	requested []uint32

	log *RequestLog
}

// dirEntry is one arena slot: a descriptor ID ever published here and its
// current expiry (unix nanoseconds; 0 = tombstoned, not currently
// stored). The entry array holds no pointers, so the garbage collector
// never scans it.
type dirEntry struct {
	id        onion.DescriptorID
	expiresAt int64
}

// NewDirectory creates a directory for the relay with fingerprint fp.
// ttl <= 0 defaults to 24 hours.
func NewDirectory(fp onion.Fingerprint, ttl time.Duration) *Directory {
	if ttl <= 0 {
		ttl = 24 * time.Hour
	}
	return &Directory{
		fingerprint: fp,
		ttl:         ttl,
		log:         NewRequestLog(),
	}
}

// Fingerprint returns the operating relay's fingerprint.
func (d *Directory) Fingerprint() onion.Fingerprint { return d.fingerprint }

// lookup returns the arena index of id, or -1.
//
//torhs:hotpath
func (d *Directory) lookup(id onion.DescriptorID) int32 {
	if len(d.slots) == 0 {
		return -1
	}
	slot := binary.BigEndian.Uint64(id[0:8]) & d.mask
	for {
		ref := d.slots[slot]
		if ref == 0 {
			return -1
		}
		if d.entries[ref-1].id == id {
			return ref - 1
		}
		slot = (slot + 1) & d.mask
	}
}

// grow (re)builds the probe table at double capacity (≤50% load).
func (d *Directory) grow() {
	size := 2 * len(d.slots)
	if size < 16 {
		size = 1 << bits.Len(uint(2*(len(d.entries)+1)))
		if size < 16 {
			size = 16
		}
	}
	d.slots = make([]int32, size)
	d.mask = uint64(size - 1)
	for i := range d.entries {
		slot := binary.BigEndian.Uint64(d.entries[i].id[0:8]) & d.mask
		for d.slots[slot] != 0 {
			slot = (slot + 1) & d.mask
		}
		d.slots[slot] = int32(i + 1)
	}
}

// Publish stores a descriptor at instant now, replacing any previous
// descriptor under the same ID and refreshing its expiry. Steady-state
// republication (an ID this directory has seen before) performs zero heap
// allocations.
//
//torhs:hotpath
func (d *Directory) Publish(desc *onion.Descriptor, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	expires := now.Add(d.ttl).UnixNano()
	if i := d.lookup(desc.DescID); i >= 0 {
		if d.entries[i].expiresAt == 0 {
			d.live++
		}
		d.entries[i].expiresAt = expires
		d.descs[i] = desc
		return
	}
	if 2*(len(d.entries)+1) > len(d.slots) {
		d.grow()
	}
	d.entries = append(d.entries, dirEntry{id: desc.DescID, expiresAt: expires})
	d.descs = append(d.descs, desc)
	if w := (len(d.entries) + 31) / 32; w > len(d.requested) {
		d.requested = append(d.requested, 0)
	}
	d.live++
	slot := binary.BigEndian.Uint64(desc.DescID[0:8]) & d.mask
	for d.slots[slot] != 0 {
		slot = (slot + 1) & d.mask
	}
	d.slots[slot] = int32(len(d.entries))
}

// markRequested sets the requested bit for arena index i with an atomic
// OR, so concurrent Probe calls may record hits without the lock.
func (d *Directory) markRequested(i int32) {
	atomic.OrUint32(&d.requested[i/32], 1<<uint(i%32))
}

// isRequested reports the requested bit for arena index i.
func (d *Directory) isRequested(i int32) bool {
	return atomic.LoadUint32(&d.requested[i/32])&(1<<uint(i%32)) != 0
}

// Fetch looks up a descriptor by ID at instant now, recording the request
// in the directory's own log. Expired descriptors are treated as absent
// (and reaped).
func (d *Directory) Fetch(id onion.DescriptorID, now time.Time) (*onion.Descriptor, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var desc *onion.Descriptor
	found := false
	if i := d.lookup(id); i >= 0 && d.entries[i].expiresAt != 0 {
		if now.UnixNano() > d.entries[i].expiresAt {
			d.entries[i].expiresAt = 0 // reap in place
			d.live--
		} else {
			found = true
			desc = d.descs[i]
			d.markRequested(i)
		}
	}
	d.log.Record(Request{DescID: id, Found: found})
	return desc, found
}

// Probe is the lock-free fetch used on the driven-traffic hot path: it
// looks up a descriptor by ID, marks it as requested on a hit, and leaves
// request logging to the caller (DriveWindow batches the records into the
// per-directory logs once per window). Expired descriptors are treated as
// absent but not reaped. Probe performs zero heap allocations and may run
// concurrently with other Probe calls; callers must not run it
// concurrently with Publish, Fetch, or Expire.
//
//torhs:hotpath
func (d *Directory) Probe(id onion.DescriptorID, now time.Time) (*onion.Descriptor, bool) {
	i := d.lookup(id)
	if i < 0 {
		return nil, false
	}
	exp := d.entries[i].expiresAt
	if exp == 0 || now.UnixNano() > exp {
		return nil, false
	}
	d.markRequested(i)
	return d.descs[i], true
}

// Expire reaps all descriptors that have expired as of now and returns the
// number removed.
func (d *Directory) Expire(now time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	nowN := now.UnixNano()
	n := 0
	for i := range d.entries {
		if e := &d.entries[i]; e.expiresAt != 0 && nowN > e.expiresAt {
			e.expiresAt = 0
			d.live--
			n++
		}
	}
	return n
}

// All returns the currently stored descriptors in publication order. This
// is the harvesting vantage point: an attacker operating the directory
// reads out every descriptor uploaded to it. Callers that only iterate
// should prefer the zero-copy Each.
func (d *Directory) All() []*onion.Descriptor {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*onion.Descriptor, 0, d.live)
	for i := range d.entries {
		if d.entries[i].expiresAt != 0 {
			out = append(out, d.descs[i])
		}
	}
	return out
}

// Each visits the currently stored descriptors in publication order
// without copying a snapshot. The directory's lock is held for the whole
// iteration; fn must not call back into the directory.
func (d *Directory) Each(fn func(*onion.Descriptor)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.entries {
		if d.entries[i].expiresAt != 0 {
			fn(d.descs[i])
		}
	}
}

// Stored returns the number of live descriptors.
func (d *Directory) Stored() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.live
}

// Log returns the directory's request log.
func (d *Directory) Log() *RequestLog { return d.log }

// PublishedEver returns how many distinct descriptor IDs were ever stored.
func (d *Directory) PublishedEver() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// RequestedPublishedEver returns how many distinct *published* descriptor
// IDs were ever fetched — numerator of the paper's 10% statistic.
func (d *Directory) RequestedPublishedEver() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for i := range d.requested {
		n += bits.OnesCount32(atomic.LoadUint32(&d.requested[i]))
	}
	return n
}

// PublishedIDs returns every descriptor ID ever stored on this directory,
// in publication order. Callers that only iterate should prefer the
// zero-copy EachPublishedID.
func (d *Directory) PublishedIDs() []onion.DescriptorID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]onion.DescriptorID, len(d.entries))
	for i := range d.entries {
		out[i] = d.entries[i].id
	}
	return out
}

// EachPublishedID visits every descriptor ID ever stored on this
// directory, in publication order, without copying a snapshot. The lock
// is held for the whole iteration; fn must not call back into the
// directory.
func (d *Directory) EachPublishedID(fn func(onion.DescriptorID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.entries {
		fn(d.entries[i].id)
	}
}

// RequestedPublishedIDs returns the stored descriptor IDs that were ever
// fetched by a client. Callers that only iterate should prefer the
// zero-copy EachRequestedPublishedID.
func (d *Directory) RequestedPublishedIDs() []onion.DescriptorID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]onion.DescriptorID, 0, len(d.entries))
	for i := range d.entries {
		if d.isRequested(int32(i)) {
			out = append(out, d.entries[i].id)
		}
	}
	return out
}

// EachRequestedPublishedID visits the stored descriptor IDs that were
// ever fetched by a client, in publication order, without copying a
// snapshot. The lock is held for the whole iteration; fn must not call
// back into the directory.
func (d *Directory) EachRequestedPublishedID(fn func(onion.DescriptorID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.entries {
		if d.isRequested(int32(i)) {
			fn(d.entries[i].id)
		}
	}
}
