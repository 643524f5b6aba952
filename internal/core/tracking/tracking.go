// Package tracking implements the paper's Section VII: statistical
// analysis of consensus history to detect entities that positioned
// themselves as a hidden service's responsible directories. Five rules
// are applied, exactly as the paper describes:
//
//  1. A relay responsible for the target far more often than chance
//     (binomial μ+3σ outlier rule with p = 6/N_hsdir).
//  2. A relay that changed its fingerprint shortly before becoming
//     responsible.
//  3. A suspiciously small descriptor-ID-to-fingerprint ring distance
//     (the avg_dist/distance ratio; >100 suspicious, >10,000 strong).
//  4. A high number of fingerprint switches in a short period.
//  5. A relay responsible for many consecutive time periods, or becoming
//     responsible at the minimum possible uptime (25 h after appearing).
package tracking

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/fault"
	"torhs/internal/onion"
	"torhs/internal/parallel"
	"torhs/internal/relay"
	"torhs/internal/stats"
)

// Checkpointer persists per-window sweep snapshots so a killed analysis
// resumes from its last folded consensus document. The contract matches
// resultstore.CheckpointSet; the interface keeps tracking below the
// store in the import graph. The context is per call — implementations
// must not retain it — and the cancellation flush passes an
// uncancellable context so the final snapshot always lands.
//
// The state handed to Save is journaled (resultstore.Incremental): its
// CheckpointBase method yields the whole gob-encodable snapshot and its
// CheckpointDelta method the growth since the previous successful Save.
// Latest's target applies deltas (resultstore.DeltaApplier).
type Checkpointer interface {
	Save(ctx context.Context, window int, state any) error
	Latest(ctx context.Context, state any) (window int, ok bool, err error)
}

// Config parameterises the detector; defaults follow the paper.
type Config struct {
	// SigmaK is the binomial outlier multiplier (3 in the paper).
	SigmaK float64
	// RatioSuspicious / RatioStrong are the distance-ratio thresholds
	// (the paper calls >100 "close" and singles out relays crossing
	// 10,000).
	RatioSuspicious float64
	RatioStrong     float64
	// FreshFlagWindow flags relays that become responsible with uptime
	// in [25h, 25h+window) — the minimum achievable.
	FreshFlagWindow time.Duration
	// SwitchLead is how soon after a fingerprint switch a responsibility
	// must follow to count as "switched into position".
	SwitchLead time.Duration
	// MinSwitches is the switch count considered unusual (rule 4).
	MinSwitches int
	// HSDirUptime is the flag threshold (for rule 5's minimum-uptime
	// check).
	HSDirUptime time.Duration
	// Workers shards the consensus sweep across goroutines (<= 0 means
	// one per CPU). Shards sweep contiguous document ranges and merge in
	// shard order, so the report is identical at every worker count.
	// Checkpointed or resumed analyses always sweep sequentially:
	// snapshots are per-document left folds.
	Workers int
}

// DefaultConfig returns the paper's thresholds.
func DefaultConfig() Config {
	return Config{
		SigmaK:          3,
		RatioSuspicious: 100,
		RatioStrong:     10000,
		FreshFlagWindow: 24 * time.Hour,
		SwitchLead:      72 * time.Hour,
		MinSwitches:     2,
		HSDirUptime:     25 * time.Hour,
	}
}

// Occurrence is one (day, relay) responsibility observation.
type Occurrence struct {
	At          time.Time
	Fingerprint onion.Fingerprint
	Replica     int
	// Ratio is avg_dist/distance for this occurrence.
	Ratio float64
	// Uptime is the relay's consensus-reported uptime that day.
	Uptime time.Duration
}

// RelayReport aggregates one relay identity's behaviour toward the
// target.
type RelayReport struct {
	RelayID      relay.ID
	Nicknames    []string
	IPs          []string
	Fingerprints int
	Occurrences  []Occurrence

	// TimesResponsible counts distinct days the relay was responsible.
	TimesResponsible int
	// Threshold is the μ+kσ suspicion bound for this window.
	Threshold float64
	// MaxRatio is the largest distance ratio observed.
	MaxRatio float64
	// MaxConsecutive is the longest run of consecutive responsible days.
	MaxConsecutive int
	// Switches counts fingerprint changes within the window.
	Switches int
	// SwitchesIntoPosition counts switches followed by responsibility
	// within SwitchLead.
	SwitchesIntoPosition int
	// FreshFlagResponsible counts days the relay was responsible at the
	// minimum possible uptime.
	FreshFlagResponsible int

	Suspicious bool
	Reasons    []string
}

// Episode is a cluster of suspicious relays that acted together — the
// paper groups trackers by shared nickname parts and IP addresses.
type Episode struct {
	// Label is the shared nickname stem (or IP set).
	Label string
	// RelayIDs lists the members.
	RelayIDs []relay.ID
	// From / To bound the episode's responsibility observations.
	From, To time.Time
	// FullTakeover marks an episode whose members held all six
	// responsible slots on at least one day.
	FullTakeover bool
}

// Report is the full analysis outcome.
type Report struct {
	From, To time.Time
	// Days is the number of consensuses analysed.
	Days int
	// MeanHSDirs is the average HSDir-ring size across the window.
	MeanHSDirs float64
	// Relays reports every relay that was ever responsible, most
	// frequent first.
	Relays []RelayReport
	// Suspicious lists indexes into Relays.
	Suspicious []int
	// Episodes clusters suspicious relays.
	Episodes []Episode
}

// Analyzer applies the Section VII rules.
type Analyzer struct {
	cfg Config

	// secrets optionally shares precomputed rend-spec secret-id-parts
	// for the target's per-day descriptor-ID derivations (set via
	// SetSecretTable; the experiments Env passes its shared table).
	// Derivations outside the table fall back to direct computation.
	secrets *onion.SecretIDTable
}

// SetSecretTable shares a precomputed secret-id-part table with the
// analyzer, so the per-consensus descriptor-ID derivations reuse secrets
// other pipeline stages already computed. A nil table reverts to direct
// derivation.
func (a *Analyzer) SetSecretTable(t *onion.SecretIDTable) { a.secrets = t }

// NewAnalyzer validates the configuration.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if cfg.SigmaK <= 0 {
		return nil, fmt.Errorf("tracking: sigma multiplier %v must be positive", cfg.SigmaK)
	}
	if cfg.RatioSuspicious <= 1 || cfg.RatioStrong < cfg.RatioSuspicious {
		return nil, fmt.Errorf("tracking: ratio thresholds %v/%v invalid",
			cfg.RatioSuspicious, cfg.RatioStrong)
	}
	if cfg.MinSwitches <= 0 {
		return nil, fmt.Errorf("tracking: min switches %d must be positive", cfg.MinSwitches)
	}
	return &Analyzer{cfg: cfg}, nil
}

// relayState accumulates per-relay evidence during the sweep. The layout
// is tuned for the common honest relay — one fingerprint, one nickname,
// one IP — which needs no per-relay heap allocations at all: firsts are
// stored inline, overflow slices stay nil, and responsibility statistics
// (distinct days, longest consecutive run) are tracked online because
// documents arrive in ValidAfter order.
type relayState struct {
	report RelayReport

	seen   bool
	lastFP onion.Fingerprint
	// fps is allocated on the first fingerprint switch and seeded with
	// the pre-switch fingerprint; while nil the distinct set is {lastFP}.
	fps        []onion.Fingerprint
	nick0, ip0 string
	extraNicks []string
	extraIPs   []string
	switchAts  []time.Time

	// Boundary fields for the sharded sweep's merge: what this state saw
	// *first* in its document range, so the merge can stitch the seam
	// against the preceding shard's *last* observations (fingerprint
	// switches hiding at the boundary, responsible-day runs crossing it).
	// mergeRelayState only ever reads them from a pristine single-shard
	// state, never from an already-merged one.
	firstFP      onion.Fingerprint
	firstSeenAt  time.Time
	firstRespDay int64 // unix day of the first responsibility, noRespDay if none
	initRun      int   // length of the first consecutive responsible-day run

	lastRespDay    int64 // unix day of the latest responsibility, noRespDay if none
	curRun, maxRun int   // consecutive responsible days
	respCount      int   // distinct responsible days

	occCount, occOff, occFilled int // global occurrence-list bookkeeping

	// seq is the state's index in creation order (stateTable.all);
	// stamp is the checkpoint generation that last marked it dirty.
	seq   int
	stamp int
}

// stateTable maps relay IDs to their accumulating state. Simulation IDs
// are small and dense, so the common path is a direct slice index (a map
// keeps sparse or negative IDs working); states are arena-allocated in
// fixed blocks so a sweep over thousands of relay identities costs a
// handful of heap allocations rather than one per relay.
type stateTable struct {
	dense  []*relayState
	sparse map[relay.ID]*relayState
	arena  []relayState
	used   int
	all    []*relayState // creation order
}

// denseIDLimit bounds the ID range backed by the dense slice.
const denseIDLimit = 1 << 20

// noRespDay is the never-responsible sentinel for lastRespDay; math.MinInt64
// cannot collide with any real unix day (including negative pre-epoch ones).
const noRespDay = math.MinInt64

func (t *stateTable) get(id relay.ID) *relayState {
	if id >= 0 && id < denseIDLimit {
		if int(id) < len(t.dense) {
			if st := t.dense[id]; st != nil {
				return st
			}
		} else {
			size := 2 * len(t.dense)
			if size < 1024 {
				size = 1024
			}
			for size <= int(id) {
				size *= 2
			}
			grown := make([]*relayState, size)
			copy(grown, t.dense)
			t.dense = grown
		}
		st := t.alloc(id)
		t.dense[id] = st
		return st
	}
	if st := t.sparse[id]; st != nil {
		return st
	}
	if t.sparse == nil {
		t.sparse = make(map[relay.ID]*relayState)
	}
	st := t.alloc(id)
	t.sparse[id] = st
	return st
}

func (t *stateTable) alloc(id relay.ID) *relayState {
	const block = 256
	if t.used == len(t.arena) {
		t.arena = make([]relayState, block) // previous block stays alive via dense/sparse/all
		t.used = 0
	}
	st := &t.arena[t.used]
	t.used++
	st.report.RelayID = id
	st.seq = len(t.all)
	st.lastRespDay = noRespDay
	st.firstRespDay = noRespDay
	t.all = append(t.all, st)
	return st
}

// markResponsible folds one responsibility observation into the online
// day statistics. Days arrive in nondecreasing order (documents are
// swept in ValidAfter order), so distinct-day and consecutive-run counts
// need no per-relay day set.
func (st *relayState) markResponsible(day int64) {
	if day == st.lastRespDay {
		return
	}
	cont := day == st.lastRespDay+1
	if cont {
		st.curRun++
	} else {
		st.curRun = 1
	}
	if st.curRun > st.maxRun {
		st.maxRun = st.curRun
	}
	// Track the first run for the shard merge: it keeps pace with
	// respCount exactly until the first gap, then freezes.
	if st.respCount == 0 {
		st.firstRespDay = day
		st.initRun = 1
	} else if cont && st.initRun == st.respCount {
		st.initRun++
	}
	st.lastRespDay = day
	st.respCount++
}

// appendFPAbsent appends fp unless already present (the slice stays tiny:
// one entry per distinct fingerprint a single relay identity ever used).
func appendFPAbsent(s []onion.Fingerprint, fp onion.Fingerprint) []onion.Fingerprint {
	for _, have := range s {
		if have == fp {
			return s
		}
	}
	return append(s, fp)
}

func appendStrAbsent(s []string, v string) []string {
	for _, have := range s {
		if have == v {
			return s
		}
	}
	return append(s, v)
}

// sortedWithFirst merges the inline first value with the overflow set and
// sorts, reproducing the sorted-distinct-set semantics of the reports.
func sortedWithFirst(first string, extra []string) []string {
	out := make([]string, 0, 1+len(extra))
	out = append(out, first)
	out = append(out, extra...)
	sort.Strings(out)
	return out
}

// Analyze sweeps the history window [from, to] and scores every relay
// that was ever responsible for the target.
func (a *Analyzer) Analyze(ctx context.Context, h *consensus.History, target onion.PermanentID, from, to time.Time) (*Report, error) {
	return a.AnalyzeCheckpointed(ctx, h, target, from, to, nil, 0, false)
}

// DocSource hands out the consensus documents of one analysis window in
// ascending ValidAfter order. It is the seam between the sweep (a pure
// left fold, document at a time) and where the documents come from: a
// materialized History slice, or a streaming source that re-derives
// windows from seed through a bounded sliding ring (ScenarioSource).
// Sequential access is O(1) for every implementation; rewinding a
// streaming source replays from seed.
//
// Sources that must not be shared across sweep shards implement
// Clone() DocSource; each shard then folds its own replica.
type DocSource interface {
	// Len returns the number of documents in the window.
	Len() int
	// At returns document i. Consumers must not retain the returned
	// document past their fold of it — a streaming source recycles ring
	// slots as the window advances (the torhsvet windowring analyzer
	// audits consumers for retained doc pointers).
	At(i int) (*consensus.Document, error)
}

// sliceSource adapts a materialized document slice to DocSource.
type sliceSource struct {
	// docs is the fully materialized window, shared read-only by shards.
	//
	//torhs:retained the materialized (non-streaming) window itself
	docs []*consensus.Document
}

func (s *sliceSource) Len() int { return len(s.docs) }

func (s *sliceSource) At(i int) (*consensus.Document, error) { return s.docs[i], nil }

// AnalyzeCheckpointed is Analyze with window-level crash safety: when
// ckpt is non-nil the sweep state is snapshotted every `every` consensus
// documents (<= 0 means every document), and with resume set the sweep
// folds forward from the latest valid snapshot instead of document
// zero. The report is byte-identical to an uninterrupted Analyze: the
// sweep is a pure left fold over documents in ValidAfter order, and the
// wrap-up sorts by a total order, so restored accumulator state is
// indistinguishable from locally-computed state.
//
// The document is the cancellation unit: ctx is observed before every
// fold. A cancelled checkpointed sweep flushes a snapshot of its folded
// prefix before returning ctx.Err(), so a deliberate stop loses no
// completed documents and a resume is byte-identical to an
// uninterrupted analysis. (The cancellation loop itself lives in
// AnalyzeSource, this wrapper's delegate.)
func (a *Analyzer) AnalyzeCheckpointed(
	ctx context.Context,
	h *consensus.History,
	target onion.PermanentID,
	from, to time.Time,
	ckpt Checkpointer,
	every int,
	resume bool,
) (*Report, error) {
	docs := h.Range(from, to)
	if len(docs) == 0 {
		return nil, fmt.Errorf("tracking: no consensus documents in [%v, %v]", from, to)
	}
	return a.AnalyzeSource(ctx, &sliceSource{docs: docs}, target, ckpt, every, resume)
}

// AnalyzeSource is the sweep over an arbitrary DocSource: the streaming
// entry point. The report is byte-identical to Analyze over a
// materialized history yielding the same document sequence, at every
// worker count, and the checkpoint/resume and cancellation contracts of
// AnalyzeCheckpointed hold unchanged — the source only changes where
// documents come from, never what is folded.
//
//torhs:cancelpoint
func (a *Analyzer) AnalyzeSource(
	ctx context.Context,
	src DocSource,
	target onion.PermanentID,
	ckpt Checkpointer,
	every int,
	resume bool,
) (*Report, error) {
	n := src.Len()
	if n == 0 {
		return nil, fmt.Errorf("tracking: empty document source")
	}

	// Without a checkpointer the sweep is free to shard: contiguous
	// document ranges fold in parallel and merge in shard order, which
	// reproduces the sequential left fold exactly (verified against the
	// sequential path by the determinism tests). Checkpointed analyses
	// stay sequential — their snapshots are per-document prefixes.
	if ckpt == nil {
		if shards := parallel.NumChunks(a.cfg.Workers, n); shards > 1 {
			sw, err := a.sweepSharded(ctx, src, target, shards)
			if err != nil {
				return nil, err
			}
			return a.report(sw, n), nil
		}
	}

	sw := sweep{
		a: a,
		// Scratch buffer reused across every (document, replica) pair:
		// the responsible set is consumed before the next
		// ResponsibleInto call.
		respBuf: make([]onion.Fingerprint, 0, onion.SpreadPerReplica),
	}
	start := 0
	if ckpt != nil {
		// Journal the fold: dirty stamps let each save persist only what
		// changed since the previous one.
		sw.gen = 1
	}
	if resume && ckpt != nil {
		var snap sweepSnapshot
		w, ok, err := ckpt.Latest(ctx, &snap)
		if err != nil {
			return nil, fmt.Errorf("tracking: resume: %w", err)
		}
		if ok {
			if snap.Docs != w+1 || snap.Docs >= n {
				return nil, fmt.Errorf("tracking: resume: snapshot covers %d documents under window %d (have %d)",
					snap.Docs, w, n)
			}
			sw.restore(&snap)
			sw.markSaved()
			start = snap.Docs
		}
	}
	if every <= 0 {
		every = 1
	}
	// lastSaved is the newest document index already snapshotted (the
	// restored prefix on resume, nothing otherwise); the cancellation
	// flush only writes when the fold advanced past it.
	lastSaved := start - 1
	for i := start; i < n; i++ {
		if cerr := ctx.Err(); cerr != nil {
			if ckpt != nil && i-1 > lastSaved {
				// The run is already cancelled; the flush must still
				// land, so it keeps ctx's values but not its cancel.
				if err := ckpt.Save(context.WithoutCancel(ctx), i-1, &sweepCheckpoint{sw: &sw, docs: i}); err != nil {
					return nil, fmt.Errorf("tracking: window %d: cancel flush: %w", i-1, err)
				}
			}
			return nil, cerr
		}
		// The document boundary is the tracking fault site: everything
		// before it is snapshotted (or cheap to refold).
		if err := fault.Hit(fault.SiteTrackingWindow); err != nil {
			return nil, fmt.Errorf("tracking: window %d: %w", i, err)
		}
		doc, err := src.At(i)
		if err != nil {
			return nil, fmt.Errorf("tracking: window %d: source: %w", i, err)
		}
		sw.observeDoc(doc, target)
		// Snapshot after the document folds; the final document is not
		// snapshotted — the report follows immediately and the caller
		// clears the set on success.
		if ckpt != nil && i < n-1 && (i+1)%every == 0 {
			if err := ckpt.Save(ctx, i, &sweepCheckpoint{sw: &sw, docs: i + 1}); err != nil {
				return nil, fmt.Errorf("tracking: window %d: checkpoint: %w", i, err)
			}
			sw.markSaved()
			lastSaved = i
		}
	}
	return a.report(&sw, n), nil
}

// sweepSharded folds the source through per-shard private sweeps over
// contiguous document ranges and merges them in shard order. A source
// implementing Clone() DocSource gives each shard its own replica (a
// streaming source replays its range from seed); other sources are
// shared read-only. The fault site still fires once per document, and
// every shard observes ctx at its document boundaries; when several
// shards trip either, the error of the lowest document index wins — the
// one the sequential sweep would have hit first (cancellation surfaces
// as ctx.Err() whichever shard noticed it, so the report is
// deterministic).
func (a *Analyzer) sweepSharded(ctx context.Context, src DocSource, target onion.PermanentID, shards int) (*sweep, error) {
	sweeps := make([]sweep, shards)
	type shardFail struct {
		doc int
		err error
	}
	fails := make([]shardFail, shards)
	cloner, _ := src.(interface{ Clone() DocSource })
	parallel.Chunks(shards, src.Len(), func(shard, lo, hi int) {
		shardSrc := src
		if cloner != nil {
			shardSrc = cloner.Clone()
		}
		sw := &sweeps[shard]
		sw.a = a
		sw.respBuf = make([]onion.Fingerprint, 0, onion.SpreadPerReplica)
		for i := lo; i < hi; i++ {
			if cerr := ctx.Err(); cerr != nil {
				fails[shard] = shardFail{doc: i, err: cerr}
				return
			}
			if err := fault.Hit(fault.SiteTrackingWindow); err != nil {
				fails[shard] = shardFail{doc: i, err: fmt.Errorf("tracking: window %d: %w", i, err)}
				return
			}
			doc, err := shardSrc.At(i)
			if err != nil {
				fails[shard] = shardFail{doc: i, err: fmt.Errorf("tracking: window %d: source: %w", i, err)}
				return
			}
			sw.observeDoc(doc, target)
		}
	})
	failDoc, failErr := -1, error(nil)
	for s := range fails {
		if fails[s].err != nil && (failDoc < 0 || fails[s].doc < failDoc) {
			failDoc, failErr = fails[s].doc, fails[s].err
		}
	}
	if failErr != nil {
		return nil, failErr
	}
	return mergeSweeps(sweeps), nil
}

// report runs the wrap-up over a finished sweep of n documents:
// thresholds, per-relay occurrence carving, rule judging, ordering,
// episode clustering. The window bounds come from the sweep's own
// first/last ValidAfter observations, captured during the fold — a
// streaming source's documents are already gone by wrap-up time.
func (a *Analyzer) report(sw *sweep, n int) *Report {
	states, totalHSDirs, occs, occStates := &sw.states, sw.totalHSDirs, sw.occs, sw.occStates

	meanHSDirs := float64(totalHSDirs) / float64(n)
	binom := stats.Binomial{
		N: n,
		P: float64(onion.Replicas*onion.SpreadPerReplica) / meanHSDirs,
	}
	threshold := binom.OutlierThreshold(a.cfg.SigmaK)

	rep := &Report{
		From:       sw.firstVA,
		To:         sw.lastVA,
		Days:       n,
		MeanHSDirs: meanHSDirs,
	}

	// Carve the per-relay occurrence slices out of one backing array, in
	// chronological order (the global list already is).
	backing := make([]Occurrence, len(occs))
	cum := 0
	for _, st := range states.all {
		st.occOff = cum
		cum += st.occCount
	}
	for i, st := range occStates {
		backing[st.occOff+st.occFilled] = occs[i]
		st.occFilled++
	}

	for _, st := range states.all {
		if st.occCount == 0 {
			continue
		}
		r := &st.report
		r.Occurrences = backing[st.occOff : st.occOff+st.occCount]
		r.Nicknames = sortedWithFirst(st.nick0, st.extraNicks)
		r.IPs = sortedWithFirst(st.ip0, st.extraIPs)
		if st.fps != nil {
			r.Fingerprints = len(st.fps)
		} else if st.seen {
			r.Fingerprints = 1
		}
		r.TimesResponsible = st.respCount
		r.Threshold = threshold
		r.MaxConsecutive = st.maxRun
		r.SwitchesIntoPosition = countSwitchesIntoPosition(st.switchAts, r.Occurrences, a.cfg.SwitchLead)

		a.judge(r)
		rep.Relays = append(rep.Relays, *r)
	}

	sort.Slice(rep.Relays, func(i, j int) bool {
		if rep.Relays[i].TimesResponsible != rep.Relays[j].TimesResponsible {
			return rep.Relays[i].TimesResponsible > rep.Relays[j].TimesResponsible
		}
		return rep.Relays[i].RelayID < rep.Relays[j].RelayID
	})
	for i := range rep.Relays {
		if rep.Relays[i].Suspicious {
			rep.Suspicious = append(rep.Suspicious, i)
		}
	}
	rep.Episodes = a.clusterEpisodes(rep)
	return rep
}

// mergeSweeps folds the per-shard partial sweeps into sweeps[0], in
// shard index order. Document shards are contiguous ascending ranges, so
// shard order is chronological order: relay states merging in src
// creation order reproduces the sequential sweep's first-appearance
// order, and the global occurrence list concatenates chronologically
// with owner pointers remapped into the merged table.
//
//torhs:shardmerge sweeps
//torhs:hotpath
func mergeSweeps(sweeps []sweep) *sweep {
	dst := &sweeps[0]
	for i := 1; i < len(sweeps); i++ {
		src := &sweeps[i]
		dst.totalHSDirs += src.totalHSDirs
		if dst.firstVA.IsZero() {
			dst.firstVA = src.firstVA
		}
		if !src.lastVA.IsZero() {
			dst.lastVA = src.lastVA
		}
		for _, sst := range src.states.all {
			mergeRelayState(dst.states.get(sst.report.RelayID), sst)
		}
		dst.occs = append(dst.occs, src.occs...)
		for _, sst := range src.occStates {
			dst.occStates = append(dst.occStates, dst.states.get(sst.report.RelayID))
		}
	}
	return dst
}

// mergeRelayState folds src — one relay's state over the *next*
// contiguous document range — into dst, the same relay's state over
// everything before it. All cross-range continuity is resolved here:
// a fingerprint switch hiding at the seam (src first saw the relay under
// a different fingerprint than dst last did), a responsible-day run
// crossing it, and the boundary day counted by both ranges when the seam
// falls inside one unix day. src must be a pristine single-range state:
// its first* boundary fields are only meaningful there.
func mergeRelayState(dst, src *relayState) {
	if !dst.seen {
		// The relay's first sighting was in src's range: adopt it
		// wholesale. Slice fields transfer ownership — shard sweeps are
		// discarded after the merge.
		id, seq := dst.report.RelayID, dst.seq
		*dst = *src
		dst.report.RelayID, dst.seq = id, seq
		return
	}

	dst.report.Switches += src.report.Switches
	dst.report.FreshFlagResponsible += src.report.FreshFlagResponsible
	if src.report.MaxRatio > dst.report.MaxRatio {
		dst.report.MaxRatio = src.report.MaxRatio
	}
	dst.occCount += src.occCount

	// Seam fingerprint switch, recorded at the document where src first
	// saw the relay — exactly where the sequential sweep records it.
	if src.firstFP != dst.lastFP {
		dst.report.Switches++
		dst.switchAts = append(dst.switchAts, src.firstSeenAt)
	}
	// Distinct fingerprint set: union, keeping the nil-means-{lastFP}
	// encoding while the union stays a single fingerprint.
	if dst.fps != nil || src.fps != nil || src.lastFP != dst.lastFP {
		if dst.fps == nil {
			dst.fps = append(make([]onion.Fingerprint, 0, 4), dst.lastFP)
		}
		if src.fps == nil {
			dst.fps = appendFPAbsent(dst.fps, src.lastFP)
		} else {
			for _, fp := range src.fps {
				dst.fps = appendFPAbsent(dst.fps, fp)
			}
		}
	}
	dst.switchAts = append(dst.switchAts, src.switchAts...)
	dst.lastFP = src.lastFP

	if src.nick0 != dst.nick0 {
		dst.extraNicks = appendStrAbsent(dst.extraNicks, src.nick0)
	}
	for _, v := range src.extraNicks {
		if v != dst.nick0 {
			dst.extraNicks = appendStrAbsent(dst.extraNicks, v)
		}
	}
	if src.ip0 != dst.ip0 {
		dst.extraIPs = appendStrAbsent(dst.extraIPs, src.ip0)
	}
	for _, v := range src.extraIPs {
		if v != dst.ip0 {
			dst.extraIPs = appendStrAbsent(dst.extraIPs, v)
		}
	}

	if src.respCount > 0 {
		if dst.respCount == 0 {
			dst.firstRespDay = src.firstRespDay
			dst.initRun = src.initRun
			dst.lastRespDay = src.lastRespDay
			dst.curRun = src.curRun
			dst.maxRun = src.maxRun
			dst.respCount = src.respCount
		} else {
			// Days are nondecreasing across the document order, so src's
			// first responsible day is >= dst's last. Two seams need
			// stitching: the same unix day observed by both ranges (the
			// sequential sweep counts it once), and a run continuing
			// straight across the boundary (bridged = its true length).
			bridged := 0
			switch src.firstRespDay {
			case dst.lastRespDay:
				dst.respCount += src.respCount - 1
				bridged = dst.curRun + src.initRun - 1
			case dst.lastRespDay + 1:
				dst.respCount += src.respCount
				bridged = dst.curRun + src.initRun
			default:
				dst.respCount += src.respCount
			}
			if src.maxRun > dst.maxRun {
				dst.maxRun = src.maxRun
			}
			if bridged > dst.maxRun {
				dst.maxRun = bridged
			}
			if bridged > 0 && src.initRun == src.respCount {
				// src was one unbroken run; the bridge extends it, so it
				// is still the current run.
				dst.curRun = bridged
			} else {
				dst.curRun = src.curRun
			}
			dst.lastRespDay = src.lastRespDay
		}
	}
}

// sweep is the accumulation state of one Analyze pass over a consensus
// range. Occurrences accumulate in one chronological global list (plus
// the owning state per entry) and are carved into per-relay slices at
// wrap-up, so the sweep never grows hundreds of tiny slices.
type sweep struct {
	a           *Analyzer
	states      stateTable
	totalHSDirs int
	occs        []Occurrence
	occStates   []*relayState
	respBuf     []onion.Fingerprint
	// firstVA / lastVA bound the folded documents' ValidAfter instants —
	// the report's From/To — captured during the fold so the wrap-up
	// never needs the (possibly already recycled) documents themselves.
	firstVA, lastVA time.Time

	// The checkpoint journal. gen is the current dirty generation (0
	// while the sweep is not checkpointed, which keeps touch a no-op);
	// dirty lists the states first mutated in this generation; the
	// saved counts are the prefixes of states.all and occs the last
	// successful save covered.
	gen                    int
	dirty                  []*relayState
	savedStates, savedOccs int
}

// touch records that st changed since the last checkpoint save. The
// per-state stamp makes it O(1) and allocation-free once dirty's
// backing array has grown to the per-window working set.
func (sw *sweep) touch(st *relayState) {
	if st.stamp != sw.gen {
		st.stamp = sw.gen
		sw.dirty = append(sw.dirty, st)
	}
}

// markSaved advances the save mark to the current fold. Callers invoke
// it only after a save succeeded, so a retried save re-encodes the same
// delta.
func (sw *sweep) markSaved() {
	sw.savedStates = len(sw.states.all)
	sw.savedOccs = len(sw.occs)
	sw.dirty = sw.dirty[:0]
	sw.gen++
}

// sweepCheckpoint is the value a checkpointed sweep hands to Save after
// docs folded documents. It satisfies resultstore.Incremental
// structurally: the store asks for either the whole sweep (a base) or
// its growth since the last successful save (a delta).
type sweepCheckpoint struct {
	sw   *sweep
	docs int
}

func (c *sweepCheckpoint) CheckpointBase() any { return c.sw.snapshot(c.docs) }

func (c *sweepCheckpoint) CheckpointDelta() any { return c.sw.delta(c.docs) }

// sweepSnapshot is the serializable form of a sweep after Docs folded
// documents: relay states in creation order (occurrence owners become
// indexes into that order), plus the global occurrence list. The
// wrap-up-only fields (occOff, occFilled) are deliberately absent —
// they are recomputed from occCount when the report is carved.
type sweepSnapshot struct {
	Docs        int
	TotalHSDirs int
	// FirstVA / LastVA carry the folded prefix's window bounds.
	FirstVA, LastVA time.Time
	Occs            []Occurrence
	OccOwners       []int
	States          []relaySnap
}

// relaySnap serializes one relayState (gob needs exported fields).
type relaySnap struct {
	Report       RelayReport
	Seen         bool
	LastFP       onion.Fingerprint
	FPs          []onion.Fingerprint
	Nick0, IP0   string
	ExtraNicks   []string
	ExtraIPs     []string
	SwitchAts    []time.Time
	FirstFP      onion.Fingerprint
	FirstSeenAt  time.Time
	FirstRespDay int64
	InitRun      int
	LastRespDay  int64
	CurRun       int
	MaxRun       int
	RespCount    int
	OccCount     int
}

// snap serializes the state.
func (st *relayState) snap() relaySnap {
	return relaySnap{
		Report:       st.report,
		Seen:         st.seen,
		LastFP:       st.lastFP,
		FPs:          st.fps,
		Nick0:        st.nick0,
		IP0:          st.ip0,
		ExtraNicks:   st.extraNicks,
		ExtraIPs:     st.extraIPs,
		SwitchAts:    st.switchAts,
		FirstFP:      st.firstFP,
		FirstSeenAt:  st.firstSeenAt,
		FirstRespDay: st.firstRespDay,
		InitRun:      st.initRun,
		LastRespDay:  st.lastRespDay,
		CurRun:       st.curRun,
		MaxRun:       st.maxRun,
		RespCount:    st.respCount,
		OccCount:     st.occCount,
	}
}

// load restores the state from its serialized form.
func (st *relayState) load(ss *relaySnap) {
	st.report = ss.Report
	st.seen = ss.Seen
	st.lastFP = ss.LastFP
	st.fps = ss.FPs
	st.nick0 = ss.Nick0
	st.ip0 = ss.IP0
	st.extraNicks = ss.ExtraNicks
	st.extraIPs = ss.ExtraIPs
	st.switchAts = ss.SwitchAts
	st.firstFP = ss.FirstFP
	st.firstSeenAt = ss.FirstSeenAt
	st.firstRespDay = ss.FirstRespDay
	st.initRun = ss.InitRun
	st.lastRespDay = ss.LastRespDay
	st.curRun = ss.CurRun
	st.maxRun = ss.MaxRun
	st.respCount = ss.RespCount
	st.occCount = ss.OccCount
}

// snapshot captures the sweep after docs folded documents.
func (sw *sweep) snapshot(docs int) *sweepSnapshot {
	states := make([]relaySnap, len(sw.states.all))
	for i, st := range sw.states.all {
		states[i] = st.snap()
	}
	return &sweepSnapshot{
		Docs:        docs,
		TotalHSDirs: sw.totalHSDirs,
		FirstVA:     sw.firstVA,
		LastVA:      sw.lastVA,
		Occs:        sw.occs,
		OccOwners:   occOwners(sw.occStates),
		States:      states,
	}
}

// occOwners maps occurrence owners to their creation-order indexes.
func occOwners(owners []*relayState) []int {
	idx := make([]int, len(owners))
	for i, st := range owners {
		idx[i] = st.seq
	}
	return idx
}

// sweepDelta is a sweep's growth since its last successful save after
// Docs folded documents: the states created since then (the tail of the
// creation order from FromState), the earlier states mutated since then,
// the occurrences appended since then (from FromOcc), and the scalars.
// The From fields name the prefix the delta extends, so applying it to
// any other snapshot fails instead of silently misaligning.
type sweepDelta struct {
	Docs            int
	TotalHSDirs     int
	FirstVA, LastVA time.Time
	FromState       int
	States          []relaySnap
	Changed         []changedRelay
	FromOcc         int
	Occs            []Occurrence
	OccOwners       []int
}

// changedRelay is the new serialized form of an existing state.
type changedRelay struct {
	Index int
	State relaySnap
}

// delta captures what the sweep grew since its save mark.
func (sw *sweep) delta(docs int) *sweepDelta {
	fresh := sw.states.all[sw.savedStates:]
	d := &sweepDelta{
		Docs:        docs,
		TotalHSDirs: sw.totalHSDirs,
		FirstVA:     sw.firstVA,
		LastVA:      sw.lastVA,
		FromState:   sw.savedStates,
		States:      make([]relaySnap, len(fresh)),
		FromOcc:     sw.savedOccs,
		Occs:        sw.occs[sw.savedOccs:],
		OccOwners:   occOwners(sw.occStates[sw.savedOccs:]),
	}
	for i, st := range fresh {
		d.States[i] = st.snap()
	}
	for _, st := range sw.dirty {
		if st.seq < sw.savedStates {
			d.Changed = append(d.Changed, changedRelay{Index: st.seq, State: st.snap()})
		}
	}
	return d
}

// ApplyCheckpointDelta folds one sweepDelta into the snapshot — the
// load half of the checkpoint journal (resultstore.DeltaApplier). The
// delta is validated in full before anything changes.
func (s *sweepSnapshot) ApplyCheckpointDelta(decode func(any) error) error {
	var d sweepDelta
	if err := decode(&d); err != nil {
		return err
	}
	if d.FromState != len(s.States) || d.FromOcc != len(s.Occs) || d.Docs <= s.Docs {
		return fmt.Errorf("tracking: delta extends %d states, %d occurrences, %d documents; snapshot has %d, %d, %d",
			d.FromState, d.FromOcc, d.Docs, len(s.States), len(s.Occs), s.Docs)
	}
	for _, c := range d.Changed {
		if c.Index < 0 || c.Index >= d.FromState {
			return fmt.Errorf("tracking: delta changes state %d of %d", c.Index, d.FromState)
		}
	}
	states := d.FromState + len(d.States)
	if len(d.OccOwners) != len(d.Occs) {
		return fmt.Errorf("tracking: delta has %d occurrences but %d owners", len(d.Occs), len(d.OccOwners))
	}
	for _, o := range d.OccOwners {
		if o < 0 || o >= states {
			return fmt.Errorf("tracking: delta occurrence owner %d of %d states", o, states)
		}
	}
	s.Docs, s.TotalHSDirs, s.FirstVA, s.LastVA = d.Docs, d.TotalHSDirs, d.FirstVA, d.LastVA
	s.States = append(s.States, d.States...)
	for _, c := range d.Changed {
		s.States[c.Index] = c.State
	}
	s.Occs = append(s.Occs, d.Occs...)
	s.OccOwners = append(s.OccOwners, d.OccOwners...)
	return nil
}

// restore rebuilds the sweep from a snapshot. States are recreated in
// their original creation order, so the occurrence-owner indexes (and
// the wrap-up's creation-order walk) line up exactly.
func (sw *sweep) restore(snap *sweepSnapshot) {
	sw.totalHSDirs = snap.TotalHSDirs
	sw.firstVA = snap.FirstVA
	sw.lastVA = snap.LastVA
	for i := range snap.States {
		ss := &snap.States[i]
		sw.states.get(ss.Report.RelayID).load(ss)
	}
	sw.occs = snap.Occs
	sw.occStates = make([]*relayState, len(snap.OccOwners))
	for i, n := range snap.OccOwners {
		sw.occStates[i] = sw.states.all[n]
	}
}

// observeDoc folds one consensus document into the sweep: fingerprint
// switches for every relay identity, and responsibility occurrences for
// the target's descriptor IDs. This is Analyze's per-document
// accumulator — the tracking pipeline's hot loop over a multi-month
// History — and stays allocation-free in steady state (everything grows
// amortized or reuses scratch).
//
//torhs:hotpath
func (sw *sweep) observeDoc(doc *consensus.Document, target onion.PermanentID) {
	// Window bounds are captured before the empty-HSDir early return:
	// every folded document widens the report's [From, To], whether or
	// not it contributed responsibilities.
	if sw.firstVA.IsZero() {
		sw.firstVA = doc.ValidAfter
	}
	sw.lastVA = doc.ValidAfter
	hsdirFPs := doc.HSDirs()
	if len(hsdirFPs) == 0 {
		return
	}
	sw.totalHSDirs += len(hsdirFPs)
	// The ring and average gap are cached on the document: repeated
	// analyses (and other pipelines) share one sorted ring per
	// consensus instead of rebuilding it per sweep.
	ring := doc.Ring()
	avgGap := doc.AverageGap()

	// Track fingerprint switches for every relay identity, whether
	// or not it was ever responsible: a tracker mines its key days
	// *before* the responsibility shows up.
	for i := range doc.Entries {
		e := &doc.Entries[i]
		st := sw.states.get(e.RelayID)
		if !st.seen {
			st.seen = true
			st.lastFP = e.Fingerprint
			st.firstFP = e.Fingerprint
			st.firstSeenAt = doc.ValidAfter
			st.nick0 = e.Nickname
			st.ip0 = e.IP
			continue
		}
		if e.Fingerprint != st.lastFP {
			if st.fps == nil {
				//torhs:ignore hotalloc cold path: runs once per relay, on its first observed fingerprint switch
				st.fps = append(make([]onion.Fingerprint, 0, 4), st.lastFP)
			}
			st.fps = appendFPAbsent(st.fps, e.Fingerprint)
			st.report.Switches++
			st.switchAts = append(st.switchAts, doc.ValidAfter)
			st.lastFP = e.Fingerprint
			sw.touch(st)
		}
		// The overflow sets change only when they grow; a relay that
		// alternates between known nicknames or IPs stays clean.
		if e.Nickname != st.nick0 {
			n := len(st.extraNicks)
			st.extraNicks = appendStrAbsent(st.extraNicks, e.Nickname)
			if len(st.extraNicks) != n {
				sw.touch(st)
			}
		}
		if e.IP != st.ip0 {
			n := len(st.extraIPs)
			st.extraIPs = appendStrAbsent(st.extraIPs, e.IP)
			if len(st.extraIPs) != n {
				sw.touch(st)
			}
		}
	}

	day := doc.ValidAfter.Unix() / 86400
	var ids [onion.Replicas]onion.DescriptorID
	if sw.a.secrets != nil {
		ids = sw.a.secrets.DescriptorIDsAt(target, doc.ValidAfter)
	} else {
		ids = onion.DescriptorIDs(target, doc.ValidAfter)
	}
	for replica, descID := range ids {
		sw.respBuf = ring.ResponsibleInto(sw.respBuf[:0], descID, onion.SpreadPerReplica)
		for _, fp := range sw.respBuf {
			entry, ok := doc.Lookup(fp)
			if !ok {
				continue
			}
			st := sw.states.get(entry.RelayID)
			ratio := onion.RingRatio(avgGap, onion.Distance(descID, fp))
			sw.occs = append(sw.occs, Occurrence{
				At:          doc.ValidAfter,
				Fingerprint: fp,
				Replica:     replica,
				Ratio:       ratio,
				Uptime:      entry.Uptime,
			})
			sw.occStates = append(sw.occStates, st)
			st.occCount++
			if ratio > st.report.MaxRatio {
				st.report.MaxRatio = ratio
			}
			if entry.Uptime >= sw.a.cfg.HSDirUptime &&
				entry.Uptime < sw.a.cfg.HSDirUptime+sw.a.cfg.FreshFlagWindow {
				st.report.FreshFlagResponsible++
			}
			st.markResponsible(day)
			sw.touch(st)
		}
	}
}

// judge applies the five rules and records the reasons.
func (a *Analyzer) judge(r *RelayReport) {
	if float64(r.TimesResponsible) > r.Threshold {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("responsible %d times, above mu+%.0fsigma=%.2f",
				r.TimesResponsible, a.cfg.SigmaK, r.Threshold))
	}
	if r.SwitchesIntoPosition > 0 {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("%d fingerprint switch(es) shortly before becoming responsible",
				r.SwitchesIntoPosition))
	}
	switch {
	case r.MaxRatio > a.cfg.RatioStrong:
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("distance ratio %.0f above strong threshold %.0f",
				r.MaxRatio, a.cfg.RatioStrong))
	case r.MaxRatio > a.cfg.RatioSuspicious:
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("distance ratio %.0f above threshold %.0f",
				r.MaxRatio, a.cfg.RatioSuspicious))
	}
	if r.Switches >= a.cfg.MinSwitches {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("%d fingerprint switches in window", r.Switches))
	}
	if r.FreshFlagResponsible > 0 {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("responsible at minimum uptime %d time(s)", r.FreshFlagResponsible))
	}
	if r.MaxConsecutive >= 5 {
		r.Reasons = append(r.Reasons,
			fmt.Sprintf("responsible %d consecutive time periods", r.MaxConsecutive))
	}

	// A single weak signal is not enough: the paper requires either a
	// strong positional signal (ratio, switch-into-position) or repeated
	// anomalies.
	strong := r.MaxRatio > a.cfg.RatioSuspicious || r.SwitchesIntoPosition > 0
	repeated := len(r.Reasons) >= 2
	r.Suspicious = (strong || repeated) && len(r.Reasons) > 0
}

func countSwitchesIntoPosition(switches []time.Time, occs []Occurrence, lead time.Duration) int {
	count := 0
	for _, sw := range switches {
		for _, o := range occs {
			d := o.At.Sub(sw)
			if d >= 0 && d <= lead {
				count++
				break
			}
		}
	}
	return count
}

// nicknameStem strips trailing digits and separators, so "tracknet03"
// and "tracknet11" share the stem "tracknet".
func nicknameStem(n string) string {
	return strings.TrimRight(n, "0123456789-_")
}

// clusterEpisodes groups suspicious relays by shared nickname stem. The
// episode's time bounds come from *positionally suspicious* occurrences
// (ratio above the threshold): any relay is occasionally responsible by
// pure chance, and those chance days must not stretch the episode.
func (a *Analyzer) clusterEpisodes(rep *Report) []Episode {
	groups := make(map[string][]int)
	for _, idx := range rep.Suspicious {
		r := rep.Relays[idx]
		stem := ""
		if len(r.Nicknames) > 0 {
			stem = nicknameStem(r.Nicknames[0])
		}
		groups[stem] = append(groups[stem], idx)
	}
	var episodes []Episode
	for stem, members := range groups {
		ep := Episode{Label: stem}
		perDaySlots := make(map[int64]int)
		deliberate := 0
		for _, idx := range members {
			r := rep.Relays[idx]
			ep.RelayIDs = append(ep.RelayIDs, r.RelayID)
			for _, o := range r.Occurrences {
				if o.Ratio <= a.cfg.RatioSuspicious {
					continue
				}
				deliberate++
				if ep.From.IsZero() || o.At.Before(ep.From) {
					ep.From = o.At
				}
				if o.At.After(ep.To) {
					ep.To = o.At
				}
				perDaySlots[o.At.Unix()/86400]++
			}
		}
		if deliberate == 0 {
			// No positional evidence; fall back to all occurrences.
			for _, idx := range members {
				for _, o := range rep.Relays[idx].Occurrences {
					if ep.From.IsZero() || o.At.Before(ep.From) {
						ep.From = o.At
					}
					if o.At.After(ep.To) {
						ep.To = o.At
					}
				}
			}
		}
		for _, slots := range perDaySlots {
			if slots >= onion.Replicas*onion.SpreadPerReplica {
				ep.FullTakeover = true
				break
			}
		}
		sort.Slice(ep.RelayIDs, func(i, j int) bool { return ep.RelayIDs[i] < ep.RelayIDs[j] })
		episodes = append(episodes, ep)
	}
	sort.Slice(episodes, func(i, j int) bool {
		if !episodes[i].From.Equal(episodes[j].From) {
			return episodes[i].From.Before(episodes[j].From)
		}
		return episodes[i].Label < episodes[j].Label
	})
	return episodes
}
