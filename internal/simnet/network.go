package simnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/fault"
	"torhs/internal/geo"
	"torhs/internal/hsdir"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/stats"
)

// Network wires a consensus snapshot, the HSDir ring with per-relay
// descriptor stores, a guard pool, and a client population into one
// drivable simulation.
//
// Directories are addressed by dense integer relay handles — positions on
// the consensus HSDir ring — resolved once through the document's cached
// lookup table, so the descriptor-fetch hot path runs entirely on slice
// indexing: no fingerprint-keyed map is consulted per request.
type Network struct {
	rng *rand.Rand

	// doc is the single consensus snapshot this network simulates; the
	// network *is* that window, so the document lives exactly as long as
	// the per-step network does (the trawl drops both together).
	//
	//torhs:retained the network's own consensus window; dropped with the per-step network
	doc        *consensus.Document
	ring       *hsdir.Ring
	ringFPs    []onion.Fingerprint // ring.Fingerprints(), cached
	dirs       []*hsdir.Directory  // dirs[i] serves ringFPs[i]
	guards     []onion.Fingerprint
	pool       *guardPool
	dirFailure float64
	workers    int
	maxSkew    time.Duration

	// secrets shares the window's precomputed secret-id-parts across
	// every descriptor-ID derivation (publish and fetch). Either injected
	// via Config.SecretTable (the experiments Env shares one table across
	// simnet, trawl, and tracking) or built lazily per driven window.
	secrets *onion.SecretIDTable

	geoDB   *geo.DB
	clients []*Client

	hosts           map[onion.Address]*Host
	uploadObservers []func(UploadEvent)

	scratch *WindowScratch
}

// Config parameterises client synthesis.
type Config struct {
	// Clients is the number of simulated clients.
	Clients int
	// SkewedClientFraction of clients have wrong clocks.
	SkewedClientFraction float64
	// MaxSkew bounds the absolute clock skew of skewed clients.
	MaxSkew time.Duration
	// WeightedGuards selects entry guards weighted by consensus
	// bandwidth, as the real Tor client does. Off by default: uniform
	// selection makes attacker guard share equal attacker guard count,
	// which the analytical checks in the experiments rely on.
	WeightedGuards bool
	// DirFailureProb is the probability that contacting one directory
	// fails (relay overloaded or unreachable); the client falls back to
	// the remaining responsible directories, as the Tor client does.
	DirFailureProb float64
	// Seed drives the network's randomness.
	Seed int64
	// Workers shards DriveWindow's fetch execution across goroutines
	// (<= 0: one per CPU). Each fetch draws from an RNG derived from the
	// request's index in the traffic plan, so the driven window is
	// byte-identical at every worker count.
	Workers int
	// SecretTable optionally shares precomputed rend-spec
	// secret-id-parts across every descriptor-ID derivation the network
	// performs. Derivations outside the table's window fall back to
	// direct computation, so any table is correct; the experiments Env
	// passes one study-wide table so simnet, trawl, and the popularity
	// index never recompute the same secret parts. Nil means the network
	// builds a table per driven window on its own.
	SecretTable *onion.SecretIDTable
	// Scratch shares window-sized buffers with networks that publish and
	// drive one after another (a trawl's per-step networks). Nil gives
	// the network a scratch of its own.
	Scratch *WindowScratch
}

// DefaultConfig returns a client population sized for tests and examples.
func DefaultConfig(seed int64) Config {
	return Config{
		Clients:              2000,
		SkewedClientFraction: 0.1,
		MaxSkew:              72 * time.Hour,
		Seed:                 seed,
	}
}

// NewNetwork builds the network from a consensus snapshot: one descriptor
// directory per HSDir-flagged relay, the guard pool, and cfg.Clients
// clients with geo-allocated IPs.
func NewNetwork(doc *consensus.Document, db *geo.DB, cfg Config) (*Network, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("simnet: client count %d must be positive", cfg.Clients)
	}
	hsdirs := doc.HSDirs()
	if len(hsdirs) < onion.Replicas*onion.SpreadPerReplica {
		return nil, fmt.Errorf("simnet: only %d HSDirs in consensus, need >= %d",
			len(hsdirs), onion.Replicas*onion.SpreadPerReplica)
	}
	guards := doc.Guards()
	if len(guards) == 0 {
		return nil, errors.New("simnet: no Guard-flagged relays in consensus")
	}

	if cfg.DirFailureProb < 0 || cfg.DirFailureProb >= 1 {
		return nil, fmt.Errorf("simnet: directory failure probability %v out of [0,1)", cfg.DirFailureProb)
	}
	n := &Network{
		rng: rand.New(rand.NewSource(cfg.Seed)),
		doc: doc,
		// The ring is cached on the document: every network (and analysis)
		// over the same consensus shares one sorted ring.
		ring:       doc.Ring(),
		guards:     guards,
		geoDB:      db,
		hosts:      make(map[onion.Address]*Host),
		dirFailure: cfg.DirFailureProb,
		workers:    cfg.Workers,
		maxSkew:    cfg.MaxSkew,
		secrets:    cfg.SecretTable,
		scratch:    cfg.Scratch,
	}
	if n.scratch == nil {
		n.scratch = new(WindowScratch)
	}
	n.ringFPs = n.ring.Fingerprints()
	n.dirs = make([]*hsdir.Directory, len(n.ringFPs))
	for i, fp := range n.ringFPs {
		n.dirs[i] = hsdir.NewDirectory(fp, 24*time.Hour)
	}
	if cfg.WeightedGuards {
		weights := make([]int, len(guards))
		for i, fp := range guards {
			if e, ok := doc.Lookup(fp); ok {
				weights[i] = e.Bandwidth
			}
		}
		n.pool = newGuardPool(guards, weights)
	} else {
		n.pool = newGuardPool(guards, nil)
	}

	n.clients = make([]*Client, cfg.Clients)
	for i := range n.clients {
		ip, country := db.AllocateIP(n.rng)
		c := &Client{ID: i, IP: ip, Country: country}
		if n.rng.Float64() < cfg.SkewedClientFraction {
			skew := time.Duration(n.rng.Int63n(int64(2*cfg.MaxSkew))) - cfg.MaxSkew
			c.ClockSkew = skew
		}
		n.clients[i] = c
	}
	return n, nil
}

// Ring returns the HSDir ring.
func (n *Network) Ring() *hsdir.Ring { return n.ring }

// Directory returns the descriptor store of the relay with fingerprint
// fp, resolved through the consensus document's cached ring-position
// table.
func (n *Network) Directory(fp onion.Fingerprint) (*hsdir.Directory, bool) {
	if i, ok := n.doc.HSDirRingPos(fp); ok {
		return n.dirs[i], true
	}
	return nil, false
}

// Directories returns all descriptor stores in ring order: Directories()[i]
// serves Ring().Fingerprints()[i]. The slice aliases the network; callers
// must not mutate it.
func (n *Network) Directories() []*hsdir.Directory { return n.dirs }

// GuardPool returns the Guard-flagged fingerprints. The slice aliases the
// consensus document's shared cache; callers must not mutate it (copy
// first, as the deanon pipelines do).
func (n *Network) GuardPool() []onion.Fingerprint { return n.guards }

// Clients returns the client population.
func (n *Network) Clients() []*Client { return n.clients }

// descriptorID derives one replica ID, through the shared secret table
// when one is available.
func (n *Network) descriptorID(permID onion.PermanentID, at time.Time, replica uint8) onion.DescriptorID {
	if n.secrets != nil {
		return n.secrets.DescriptorID(permID, at, replica)
	}
	return onion.ComputeDescriptorID(permID, at, replica)
}

// publishScratch carries the reusable buffers of a publish sweep.
type publishScratch struct {
	pos []int32
}

// PublishService uploads both descriptor replicas of a service to their
// responsible directories at instant now. The upload travels a
// guard-anchored circuit from the service's host; every upload is
// announced to registered upload observers (the tap the [8]-style
// service deanonymisation uses).
func (n *Network) PublishService(svc *hspop.Service, now time.Time) {
	var sc publishScratch
	n.publishService(svc, now, &sc)
}

func (n *Network) publishService(svc *hspop.Service, now time.Time, sc *publishScratch) {
	host := n.ensureHost(svc)
	if len(host.intros) == 0 {
		n.establishIntroPoints(host, 3)
	}
	var ids [onion.Replicas]onion.DescriptorID
	if n.secrets != nil {
		ids = n.secrets.DescriptorIDsAt(svc.PermID, now)
	} else {
		ids = onion.DescriptorIDs(svc.PermID, now)
	}
	// Both replica descriptors share one intro-point snapshot; the slice
	// is never mutated after the host establishes its intro points.
	intros := host.IntroPoints()
	for replica, descID := range ids {
		desc := &onion.Descriptor{
			DescID:      descID,
			Address:     svc.Address,
			PermID:      svc.PermID,
			Replica:     uint8(replica),
			PublishedAt: now,
			IntroPoints: intros,
		}
		sc.pos = n.ring.ResponsibleIndicesInto(sc.pos[:0], descID, onion.SpreadPerReplica)
		for _, pos := range sc.pos {
			n.dirs[pos].Publish(desc, now)
			if len(n.uploadObservers) > 0 {
				ev := UploadEvent{
					Host:   host,
					Guard:  host.gs.pickPool(n.pool, n.rng, now),
					Dir:    n.ringFPs[pos],
					DescID: descID,
					At:     now,
				}
				for _, fn := range n.uploadObservers {
					fn(ev)
				}
			}
		}
	}
}

// PublishAll uploads descriptors for every descriptor-bearing service in
// the population and returns the number published.
//
// The sweep is sharded: host and intro-point establishment draw from the
// network RNG and stay sequential (preserving the RNG byte stream
// exactly), then each worker derives descriptor IDs and responsible sets
// for a contiguous span of services into private staging buffers, and a
// merge phase applies the staged placements per directory in
// shard-then-service order — which is service order, so every
// directory's store sees the exact insertion sequence of a sequential
// sweep. Observer-tapped networks (the service-deanon tap) draw a guard
// pick from the network RNG per upload and must announce events in
// service order, so they take the sequential path, as does Workers==1
// (no goroutines, no staging).
func (n *Network) PublishAll(pop *hspop.Population, now time.Time) int {
	svcs := pop.WithDescriptor()
	shards := parallel.NumChunks(n.workers, len(svcs))
	if len(n.uploadObservers) > 0 || shards <= 1 {
		var sc publishScratch
		for _, svc := range svcs {
			n.publishService(svc, now, &sc)
		}
		return len(svcs)
	}

	// Phase 1 (sequential): establish hosts and intro points in service
	// order — the only RNG draws of an untapped publish sweep.
	hosts := make([]*Host, len(svcs))
	for i, svc := range svcs {
		hosts[i] = n.ensureHost(svc)
		if len(hosts[i].intros) == 0 {
			n.establishIntroPoints(hosts[i], 3)
		}
	}

	// Phase 2 (parallel): derive and stage. Each shard owns a span of
	// services, a private responsible-set scratch, its span of the
	// shared descriptor array, and private staging buffers + counts —
	// zero cross-shard synchronization.
	nd := len(n.dirs)
	descs := make([]onion.Descriptor, onion.Replicas*len(svcs))
	type staged struct {
		dirs    []int32 // placement target ring positions, service order
		descIdx []int32 // parallel indexes into descs
	}
	stage := make([]staged, shards)
	n.scratch.counts = zeroed(n.scratch.counts, shards*nd)
	counts := n.scratch.counts
	parallel.Chunks(shards, len(svcs), func(shard, lo, hi int) {
		var sc publishScratch
		est := (hi - lo) * onion.Replicas * onion.SpreadPerReplica
		pls := make([]int32, 0, est)
		dix := make([]int32, 0, est)
		cnt := counts[shard*nd : (shard+1)*nd]
		for si := lo; si < hi; si++ {
			svc := svcs[si]
			var ids [onion.Replicas]onion.DescriptorID
			if n.secrets != nil {
				ids = n.secrets.DescriptorIDsAt(svc.PermID, now)
			} else {
				ids = onion.DescriptorIDs(svc.PermID, now)
			}
			intros := hosts[si].IntroPoints()
			for replica, descID := range ids {
				di := int32(si*onion.Replicas + replica)
				descs[di] = onion.Descriptor{
					DescID:      descID,
					Address:     svc.Address,
					PermID:      svc.PermID,
					Replica:     uint8(replica),
					PublishedAt: now,
					IntroPoints: intros,
				}
				sc.pos = n.ring.ResponsibleIndicesInto(sc.pos[:0], descID, onion.SpreadPerReplica)
				for _, pos := range sc.pos {
					pls = append(pls, pos)
					dix = append(dix, di)
					cnt[pos]++
				}
			}
		}
		stage[shard] = staged{dirs: pls, descIdx: dix}
	})

	// Phase 3 (merge): cursor the staged counts into one placement arena
	// ordered directory-major then shard-then-service, and apply each
	// directory's span independently (each Directory has its own lock
	// and sees its placements in exact service order).
	n.scratch.offs = zeroed(n.scratch.offs, nd+1)
	dirOffs := n.scratch.offs
	total := shardFillCursors(counts, dirOffs, shards, nd)
	arena := make([]*onion.Descriptor, total)
	parallel.ForEach(shards, shards, func(shard int) {
		cur := counts[shard*nd : (shard+1)*nd]
		st := &stage[shard]
		for k, pos := range st.dirs {
			arena[cur[pos]] = &descs[st.descIdx[k]]
			cur[pos]++
		}
	})
	parallel.ForEach(n.workers, nd, func(d int) {
		for _, desc := range arena[dirOffs[d]:dirOffs[d+1]] {
			n.dirs[d].Publish(desc, now)
		}
	})
	return len(svcs)
}

// FetchEvent describes one descriptor fetch as the network executed it.
type FetchEvent struct {
	Client *Client
	// Guard is the entry guard the circuit used.
	Guard onion.Fingerprint
	// Dir is the directory that finally answered.
	Dir onion.Fingerprint
	// DescID is the requested descriptor ID.
	DescID onion.DescriptorID
	// Found reports whether the directory had the descriptor.
	Found bool
	// Attempts is how many directories the client contacted (retries on
	// unreachable directories included).
	Attempts int
	// At is the (true) request instant.
	At time.Time
}

// fetchScratch carries the reusable buffers and memos of one fetch
// worker. Traffic plans list requests grouped by service, so consecutive
// fetches usually repeat the same descriptor-ID derivations (per
// replica) and the same responsible-set lookups; phantom requests are
// Zipf-weighted, so their descriptor IDs repeat too. Both memos are pure
// functions of their keys — they can never change an outcome, only skip
// repeated SHA-1 and ring-search work.
type fetchScratch struct {
	pos []int32

	// Descriptor-ID memo for the current (service, period): one slot per
	// replica, filled lazily.
	idPermID onion.PermanentID
	idPeriod uint32
	idValid  bool
	idOK     [onion.Replicas]bool
	idVal    [onion.Replicas]onion.DescriptorID

	// Responsible-set memo: 4-way direct-mapped by the descriptor ID's
	// low bits (uniform SHA-1 output), so the two live replicas of a
	// service and the hot phantom IDs rarely evict each other.
	respKey [4]onion.DescriptorID
	respOK  [4]bool
	respLen [4]int
	respVal [4][onion.SpreadPerReplica]int32
}

// fetchRec is the compact, pointer-free record a fetch worker writes:
// DriveWindow buffers one per planned request (the garbage collector
// never scans the buffer) and materialises FetchEvents from them during
// the sequential replay.
type fetchRec struct {
	descID   onion.DescriptorID
	guard    onion.Fingerprint
	atNanos  int64
	clientID int32
	// lastDir is the ring position of the last directory tried (the
	// event's Dir field); answered is the position of the directory that
	// actually took the request, -1 when every responsible directory was
	// unreachable.
	lastDir  int32
	answered int32
	attempts int32
	found    bool
}

// event materialises the FetchEvent a record describes.
func (n *Network) event(rec *fetchRec) FetchEvent {
	return FetchEvent{
		Client:   n.clients[rec.clientID],
		Guard:    rec.guard,
		Dir:      n.ringFPs[rec.lastDir],
		DescID:   rec.descID,
		Found:    rec.found,
		Attempts: int(rec.attempts),
		At:       time.Unix(0, rec.atNanos).UTC(),
	}
}

// FetchDescriptor performs one client descriptor fetch for the service
// with permanent ID permID: the client computes the descriptor ID with
// its *local* clock, picks a replica, and queries one of the responsible
// directories through one of its guards.
//
// Like every Network method that draws from the network RNG, single
// fetches must be externally serialized with publishes and other
// fetches (DriveWindow is the concurrency-safe path: it executes an
// entire window's fetches on per-request RNGs against read-only
// stores). Expired descriptors read as absent but are reaped by the
// next Publish or Expire rather than on the fetch itself.
func (n *Network) FetchDescriptor(c *Client, permID onion.PermanentID, now time.Time) FetchEvent {
	var sc fetchScratch
	rec := n.fetchDescriptor(n.rng, c, permID, now, &sc)
	if rec.answered >= 0 {
		n.dirs[rec.answered].Log().Record(hsdir.Request{DescID: rec.descID, Found: rec.found})
	}
	return n.event(&rec)
}

// FetchRawID performs one fetch for an arbitrary descriptor ID (used for
// the phantom requests to never-published descriptors). The
// serialization contract of FetchDescriptor applies.
func (n *Network) FetchRawID(c *Client, descID onion.DescriptorID, now time.Time) FetchEvent {
	var sc fetchScratch
	rec := n.fetchByID(n.rng, c, descID, now, &sc)
	if rec.answered >= 0 {
		n.dirs[rec.answered].Log().Record(hsdir.Request{DescID: rec.descID, Found: rec.found})
	}
	return n.event(&rec)
}

// fetchDescriptor is FetchDescriptor with the randomness source and
// scratch buffers made explicit so DriveWindow can run fetches
// concurrently on per-request RNGs; the caller owns request-log
// recording.
//
//torhs:hotpath
func (n *Network) fetchDescriptor(rng *rand.Rand, c *Client, permID onion.PermanentID, now time.Time, sc *fetchScratch) fetchRec {
	local := c.LocalTime(now)
	replica := uint8(rng.Intn(onion.Replicas))
	period := onion.TimePeriod(permID, local)
	if !sc.idValid || sc.idPermID != permID || sc.idPeriod != period {
		sc.idPermID, sc.idPeriod, sc.idValid = permID, period, true
		sc.idOK = [onion.Replicas]bool{}
	}
	if !sc.idOK[replica] {
		sc.idOK[replica] = true
		if n.secrets != nil {
			sc.idVal[replica] = n.secrets.DescriptorIDForPeriod(permID, period, replica)
		} else {
			sc.idVal[replica] = onion.DescriptorIDForPeriod(permID, period, replica)
		}
	}
	return n.fetchByID(rng, c, sc.idVal[replica], now, sc)
}

//
//torhs:hotpath
func (n *Network) fetchByID(rng *rand.Rand, c *Client, descID onion.DescriptorID, now time.Time, sc *fetchScratch) fetchRec {
	rec := fetchRec{
		descID:   descID,
		guard:    c.gs.pickPool(n.pool, rng, now),
		atNanos:  now.UnixNano(),
		clientID: int32(c.ID),
		answered: -1,
	}
	slot := descID[len(descID)-1] & 3
	if !sc.respOK[slot] || sc.respKey[slot] != descID {
		sc.pos = n.ring.ResponsibleIndicesInto(sc.pos[:0], descID, onion.SpreadPerReplica)
		sc.respKey[slot], sc.respOK[slot] = descID, true
		sc.respLen[slot] = copy(sc.respVal[slot][:], sc.pos)
	}
	k := sc.respLen[slot]
	// Contact the responsible directories in random order, falling back
	// on unreachable ones, as the Tor client does. The permutation
	// replays math/rand.Perm's exact draw sequence into a stack buffer
	// (rand.Perm would heap-allocate per fetch); k never exceeds
	// onion.SpreadPerReplica, and the i=0 iteration swaps order[0] with
	// itself but still consumes one Intn draw — math/rand.Perm does the
	// same, and the RNG stream (and with it every driven window) must
	// not shift.
	var order [onion.SpreadPerReplica]int32
	for i := 0; i < k; i++ {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
	for _, oi := range order[:k] {
		pos := sc.respVal[slot][oi]
		rec.attempts++
		rec.lastDir = pos
		if n.dirFailure > 0 && rng.Float64() < n.dirFailure {
			continue // this directory was unreachable; try the next
		}
		_, rec.found = n.dirs[pos].Probe(descID, now)
		rec.answered = pos
		return rec
	}
	// Every responsible directory was unreachable.
	return rec
}

// TrafficStats summarises a driven measurement window.
type TrafficStats struct {
	TotalRequests   int
	PhantomRequests int
	ResolvedHits    int
}

// planEntry is one planned request of a driven window.
type planEntry struct {
	permID  onion.PermanentID
	phantom bool
}

// WindowScratch holds the window-sized buffers of PublishAll and
// DriveWindow for reuse across windows: every slot is overwritten before
// it is read, so reuse can never change an outcome — it only stops each
// window from allocating and zeroing megabytes of plan, record, and
// log-routing buffers. A scratch serves one call at a time, and its
// buffers live exactly as long as the networks that own it, so no idle
// window-sized copy outlives the run that needed it.
type WindowScratch struct {
	plan    []planEntry
	phantom []onion.DescriptorID
	recs    []fetchRec
	order   []int32
	batches [][]hsdir.Request // one routing batch per worker
	counts  []int32
	offs    []int32
}

// grow returns s resliced to length n, reallocating to exactly n when
// its capacity is short (headroom would sit in the peak heap); the
// contents are stale.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is grow for counting buffers, which need zeroes.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// warmGuardSets rotates-in the guard set of every client, using the
// network RNG sequentially, refreshing any guard that would expire
// before horizon. DriveWindow calls it before fanning out so that
// concurrent fetches only *read* guard state: after warming, every
// guard's expiry lies beyond the window's end.
func (n *Network) warmGuardSets(now, horizon time.Time) {
	for _, c := range n.clients {
		c.gs.refreshPoolUntil(n.pool, n.rng, now, horizon)
	}
}

// ensureSecrets makes sure the shared secret table covers every local
// clock a client may use inside [start, end]. Called from the sequential
// planning phase only; phase-2 workers read the table immutably.
func (n *Network) ensureSecrets(start, end time.Time) {
	lo := start.Add(-n.maxSkew - 24*time.Hour)
	hi := end.Add(n.maxSkew + 24*time.Hour)
	if n.secrets == nil || !n.secrets.Covers(lo, hi) {
		n.secrets = onion.NewSecretIDTable(lo, hi)
	}
}

// DriveWindow generates descriptor-fetch traffic over a measurement
// window of the given duration starting at start: Poisson counts around
// each popular service's expected rate, plus phantom requests for
// never-published descriptor IDs at the configured fraction. The observer
// callback (optional) sees every fetch event — this is where the
// signature attack taps in.
//
// Execution is three-phase so cfg.Workers never changes the outcome:
// the traffic plan is drawn sequentially from the network RNG; the
// fetches execute concurrently, each on an RNG derived from its plan
// index, probing the descriptor stores lock-free and recording into
// per-worker buffers; and the events are replayed to the stats and the
// observer sequentially in plan order, with the request records routed
// to the per-directory logs in one batch per directory.
//
// The window is the cancellation unit: ctx is checked on entry and
// while the plan is drawn, before any descriptor store or directory log
// mutates. Once the fetch fan-out starts the window runs to completion,
// so a nil error means the window's effects are fully applied and a
// ctx.Err() return means the network state is exactly as it was —
// cancelled windows can always be replayed.
//
//torhs:cancelpoint
func (n *Network) DriveWindow(
	ctx context.Context,
	pop *hspop.Population,
	start time.Time,
	window time.Duration,
	observer func(FetchEvent),
) (TrafficStats, error) {
	// The window boundary is a fault site (crash/slow only: the method
	// surfaces no transient errors — its only error is cancellation).
	fault.MustHit(fault.SiteSimWindow)

	var out TrafficStats
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Phase 1: draw the plan sequentially from the network RNG. The RNG
	// draws must complete once started (a partial draw would desync the
	// sequential stream), so cancellation is observed between services,
	// before the plan seed is drawn and any state below is touched.
	plan := n.scratch.plan[:0]
	realTotal := 0
	for _, svc := range pop.PopularServices() {
		if err := ctx.Err(); err != nil {
			n.scratch.plan = plan
			return out, err
		}
		c := stats.Poisson(n.rng, svc.ExpectedRequests)
		for k := 0; k < c; k++ {
			plan = append(plan, planEntry{permID: svc.PermID})
		}
		realTotal += c
	}

	// Phantom pool: never-published descriptor IDs, power-law weighted.
	phantomFrac := pop.Config.PhantomRequestFraction
	phantomTotal := 0
	if phantomFrac > 0 {
		phantomTotal = int(float64(realTotal) * phantomFrac / (1 - phantomFrac))
	}
	nPhantomIDs := pop.Config.ScaledPhantomIDs()
	n.scratch.phantom = grow(n.scratch.phantom, nPhantomIDs)
	phantomIDs := n.scratch.phantom
	for i := range phantomIDs {
		f := onion.RandomFingerprint(n.rng)
		copy(phantomIDs[i][:], f[:])
	}
	for k := 0; k < phantomTotal; k++ {
		plan = append(plan, planEntry{phantom: true})
	}
	n.scratch.plan = plan // keep the (possibly grown) backing array, not the stale header
	planSeed := n.rng.Int63()
	end := start.Add(window)
	n.warmGuardSets(start, end)
	n.ensureSecrets(start, end)

	// Phase 2: execute the fetches concurrently. Each request derives
	// its RNG from (planSeed, index) — one reseeded RNG per worker, not
	// one allocation per request — probes the descriptor stores without
	// taking any lock, and notes which directory answered. Every shard
	// is fully private: its own fetch scratch (descriptor-ID and
	// responsible-set memos), its own RNG stream, its own stats tally,
	// and its own per-directory staging counts — zero cross-shard
	// synchronization until the merge. Warmed guard sets are only read:
	// warming refreshed every guard that would expire before end. A
	// freshly refreshed guard is stable for minGuardLifetime, so for
	// windows that long or longer the no-mid-window-rotation guarantee
	// cannot hold and we fall back to serial execution (identical
	// results at every Workers value either way, since the plan already
	// fixes each request's RNG).
	workers := n.workers
	if window >= minGuardLifetime {
		workers = 1
	}
	shards := parallel.NumChunks(workers, len(plan))
	if shards == 0 {
		return out, nil
	}
	n.scratch.recs = grow(n.scratch.recs, len(plan))
	recs := n.scratch.recs // pointer-free: never GC-scanned
	nd := len(n.dirs)
	// counts[shard*nd+d] stages shard's answered-request count for
	// directory d; after the drive it is rewritten in place into the
	// shard's fill cursors for the routing arena.
	n.scratch.counts = zeroed(n.scratch.counts, shards*nd)
	counts := n.scratch.counts
	shardStats := make([]TrafficStats, shards)
	parallel.Chunks(shards, len(plan), func(shard, lo, hi int) {
		var sc fetchScratch
		rng := parallel.NewRNG(0)
		cnt := counts[shard*nd : (shard+1)*nd]
		st := &shardStats[shard]
		for i := lo; i < hi; i++ {
			rng.Seed(parallel.SeedFor(planSeed, int64(i)))
			at := start.Add(time.Duration(rng.Int63n(int64(window))))
			c := n.clients[rng.Intn(len(n.clients))]
			if plan[i].phantom {
				// Zipf-ish: low indexes requested far more often.
				idx := int(float64(len(phantomIDs)) * math.Pow(rng.Float64(), 2.2))
				if idx >= len(phantomIDs) {
					idx = len(phantomIDs) - 1
				}
				recs[i] = n.fetchByID(rng, c, phantomIDs[idx], at, &sc)
				st.PhantomRequests++
			} else {
				recs[i] = n.fetchDescriptor(rng, c, plan[i].permID, at, &sc)
			}
			st.TotalRequests++
			if recs[i].found {
				st.ResolvedHits++
			}
			if recs[i].answered >= 0 {
				cnt[recs[i].answered]++
			}
		}
	})

	// Phase 3: merge. Stats fold in shard index order; the observer —
	// when one is tapped in — replays the records sequentially in plan
	// order (the records are already globally ordered: chunk spans are
	// contiguous and ascending).
	out = mergeWindowStats(shardStats)
	if observer != nil {
		for i := range recs {
			observer(n.event(&recs[i]))
		}
	}

	// Route the window's request records to the per-directory logs,
	// grouped by directory so the directories fold in parallel without
	// a shared lock: the staged per-shard counts become fill cursors
	// into one shared index arena of per-directory spans, then each
	// shard writes the plan indexes of its own records into its disjoint
	// cursor ranges in parallel. The directories then fan out: each
	// gathers its span into its worker's batch buffer and folds it into
	// its log in one RecordBatch. A log keeps per-ID counts only, so
	// the order within a directory's span never reaches its contents.
	// Routing through 4-byte indexes rather than a window-sized copy of
	// the requests keeps the window's peak heap down to the records
	// themselves plus one directory's span per worker.
	n.scratch.offs = zeroed(n.scratch.offs, nd+1)
	dirOffs := n.scratch.offs
	total := shardFillCursors(counts, dirOffs, shards, nd)
	if total > 0 {
		n.scratch.order = grow(n.scratch.order, int(total))
		order := n.scratch.order
		parallel.Chunks(shards, len(plan), func(shard, lo, hi int) {
			cur := counts[shard*nd : (shard+1)*nd]
			for i := lo; i < hi; i++ {
				d := recs[i].answered
				if d < 0 {
					continue
				}
				order[cur[d]] = int32(i)
				cur[d]++
			}
		})
		n.scratch.batches = grow(n.scratch.batches, parallel.NumChunks(workers, nd))
		parallel.Chunks(workers, nd, func(w, lo, hi int) {
			batch := n.scratch.batches[w]
			for d := lo; d < hi; d++ {
				batch = batch[:0]
				for _, i := range order[dirOffs[d]:dirOffs[d+1]] {
					batch = append(batch, hsdir.Request{DescID: recs[i].descID, Found: recs[i].found})
				}
				n.dirs[d].Log().RecordBatch(batch)
			}
			n.scratch.batches[w] = batch
		})
	}
	return out, nil
}

// mergeWindowStats folds the per-shard traffic tallies of a driven
// window, iterating shards in index order (every field is a sum, but the
// order is part of the merge contract the analyzer checks).
//
//torhs:shardmerge shards
//torhs:hotpath
func mergeWindowStats(shards []TrafficStats) TrafficStats {
	var out TrafficStats
	for i := range shards {
		out.TotalRequests += shards[i].TotalRequests
		out.PhantomRequests += shards[i].PhantomRequests
		out.ResolvedHits += shards[i].ResolvedHits
	}
	return out
}

// shardFillCursors turns staged per-shard per-directory counts
// (counts[shard*nd+d]) into arena fill cursors, in place: after the call
// counts[shard*nd+d] is the arena index where that shard writes its
// first record for directory d, spans ordered directory-major then shard
// — so concatenation reproduces plan order exactly. dirOffs (len nd+1)
// receives each directory's [dirOffs[d], dirOffs[d+1]) arena span; the
// return value is the total record count.
//
//torhs:hotpath
func shardFillCursors(counts, dirOffs []int32, shards, nd int) int32 {
	pos := int32(0)
	for d := 0; d < nd; d++ {
		dirOffs[d] = pos
		for s := 0; s < shards; s++ {
			c := counts[s*nd+d]
			counts[s*nd+d] = pos
			pos += c
		}
	}
	dirOffs[nd] = pos
	return pos
}
