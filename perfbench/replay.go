package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"torhs/internal/consensus"
	"torhs/internal/core/content"
	"torhs/internal/core/deanon"
	"torhs/internal/core/popularity"
	"torhs/internal/core/scan"
	"torhs/internal/core/tracking"
	"torhs/internal/core/trawl"
	"torhs/internal/core/webcrawl"
	"torhs/internal/darknet"
	"torhs/internal/experiments"
	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/onion"
	"torhs/internal/relaynet"
	"torhs/internal/report"
	"torhs/internal/resultstore"
	"torhs/internal/simnet"
)

// The kernel replay calls each layer's public functions in dependency
// order, the way internal/experiments/study.go wires them for one
// study, with a span around every call. It runs on a fresh substrate,
// sequentially, so every span's time is the layer's own.

// streamDemandHint mirrors the arena hint the experiments layer gives
// the population generator in streaming runs.
const streamDemandHint = 4096

// replayTrace is the trace id of the kernel replay.
const replayTrace = 2

// replay holds what the replay's layers hand one another.
type replay struct {
	ctx    context.Context
	cfg    experiments.Config
	rec    *Recorder
	root   int64
	store  *resultstore.Store // nil: the study runs without a store
	scen   string
	res    *Result
	ckpts  ckptStats
	pop    *hspop.Population
	fabric *darknet.Fabric
	geoDB  *geo.DB
	table  *onion.SecretIDTable
}

// span runs fn as one layer call under the replay root.
func (r *replay) span(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := r.rec.Do(name, r.root, replayTrace, fn)
	return time.Since(t0), err
}

func (r *replay) key(name string) resultstore.Key {
	return resultstore.Key{
		Experiment:  name,
		Scenario:    r.scen,
		Params:      r.cfg.CacheKey(),
		CodeVersion: experiments.OutputVersion + "/" + report.SchemaVersion,
	}
}

// runReplay replays one study's kernels and records the per-layer
// metrics. store, when set, is where checkpoints and intermediates go,
// as in a stored job-plane study.
func runReplay(ctx context.Context, cfg experiments.Config, store *resultstore.Store, scen string, rec *Recorder, res *Result) error {
	r := &replay{ctx: ctx, cfg: cfg, rec: rec, store: store, scen: scen, res: res}
	r.root = rec.ID()
	t0 := rec.now()
	err := r.run()
	rec.Add(Span{ID: r.root, Trace: replayTrace, Name: "replay", Start: t0, End: rec.now()})
	return err
}

func (r *replay) run() error {
	for _, step := range []func() error{r.landscape, r.scanContent, r.collection, r.popularity, r.deanon, r.tracking} {
		if err := step(); err != nil {
			return err
		}
	}
	if r.store != nil {
		r.res.set("resultstore.checkpoint_saves", "count", float64(len(r.ckpts.saves)))
		r.res.set("resultstore.checkpoint_save_p50_ms", "ms", median(r.ckpts.saves))
		r.res.set("resultstore.checkpoint_bytes", "bytes", float64(r.ckpts.bytes))
	}
	return nil
}

// landscape builds the population, the reachability fabric and the
// shared lookup tables.
func (r *replay) landscape() error {
	d, err := r.span("hspop.generate", func() error {
		popCfg := hspop.PaperConfig(r.cfg.Seed)
		popCfg.Scale = r.cfg.Scale
		popCfg.Workers = r.cfg.Workers
		if r.cfg.Stream {
			popCfg.DemandHint = streamDemandHint
		}
		if r.cfg.BotFactor > 0 {
			popCfg.SkynetBots = int(float64(popCfg.SkynetBots) * r.cfg.BotFactor)
		}
		var err error
		r.pop, err = hspop.Generate(r.ctx, popCfg)
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("hspop.generate_s", "s", seconds(d))
	d, _ = r.span("darknet.new", func() error {
		r.fabric = darknet.New(r.pop)
		return nil
	})
	r.res.set("darknet.new_s", "s", seconds(d))
	_, err = r.span("geo.new", func() error {
		var err error
		r.geoDB, err = geo.NewDB(geo.DefaultBotnetMix())
		return err
	})
	if err != nil {
		return err
	}
	base := relaynet.DefaultFleetConfig(r.cfg.Seed).Start
	_, err = r.span("onion.secret_table", func() error {
		r.table = onion.NewSecretIDTable(base.Add(-9*24*time.Hour), base.Add(13*24*time.Hour))
		return nil
	})
	return err
}

// scanContent is the port scan, the certificate audit and the content
// crawl over the scan's destinations.
func (r *replay) scanContent() error {
	addrs := make([]onion.Address, 0, r.pop.Len())
	for _, svc := range r.pop.Services {
		addrs = append(addrs, svc.Address)
	}
	var scanRes *scan.Result
	d, err := r.span("scan.scan", func() error {
		scCfg := scan.DefaultConfig(r.cfg.Seed)
		scCfg.Workers = r.cfg.Workers
		sc, err := scan.New(r.fabric, scCfg)
		if err != nil {
			return err
		}
		scanRes = sc.ScanAll(addrs)
		sc.AuditCertificates(scanRes)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("scan.scan_s", "s", seconds(d))
	r.res.set("scan.addresses", "count", float64(len(addrs)))

	var cr *content.Result
	d, err = r.span("content.crawl", func() error {
		crCfg := content.DefaultConfig()
		crCfg.Workers = r.cfg.Workers
		c, err := content.New(r.fabric, crCfg)
		if err != nil {
			return err
		}
		cr, err = c.Crawl(content.DestinationsFromPorts(scanRes.PerAddress))
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("content.crawl_s", "s", seconds(d))
	r.res.set("content.classified_ratio", "ratio", float64(cr.Classified)/float64(cr.Attempted))
	return nil
}

// relaySim builds the one-day honest relay network at a seed offset.
func (r *replay) relaySim(offset int64) (*relaynet.Sim, error) {
	var sim *relaynet.Sim
	_, err := r.span("relaynet.sim", func() error {
		fleet := relaynet.DefaultFleetConfig(r.cfg.Seed + offset)
		fleet.Days = 1
		fleet.InitialRelays = r.cfg.Relays
		fleet.FinalRelays = r.cfg.Relays
		var err error
		sim, err = relaynet.NewSim(fleet)
		return err
	})
	return sim, err
}

// consensusAt runs the relay network at a seed offset to its first
// consensus.
func (r *replay) consensusAt(offset int64) (*consensus.Document, error) {
	sim, err := r.relaySim(offset)
	if err != nil {
		return nil, err
	}
	var doc *consensus.Document
	_, err = r.span("relaynet.sim", func() error {
		h, err := sim.Run(nil)
		if err != nil {
			return err
		}
		doc = h.All()[0]
		return nil
	})
	return doc, err
}

// trawlRun deploys a trawling fleet at the seed offset and runs it,
// checkpointing into the store when there is one and otherwise marking
// step boundaries on a clock.
func (r *replay) trawlRun(name string, offset int64, traffic bool) (*trawl.Harvest, []float64, error) {
	sim, err := r.relaySim(offset)
	if err != nil {
		return nil, nil, err
	}
	tCfg := trawl.DefaultConfig(r.cfg.Seed)
	tCfg.IPs = r.cfg.TrawlIPs
	tCfg.Steps = r.cfg.TrawlSteps
	tCfg.Workers = r.cfg.Workers
	tCfg.SecretTable = r.table
	tCfg.CompactLogs = r.cfg.Stream
	if traffic {
		tCfg.ClientConfig.Clients = r.cfg.Clients
	} else {
		tCfg.DriveTraffic = false
	}
	tCfg.CheckpointEvery = 1
	var marks *stepMarks
	if r.store != nil {
		ck, err := newTracedCheckpointer(r.store, r.key(fmt.Sprintf("ckpt-trawl-%d", offset)), r.rec, 0, replayTrace, &r.ckpts)
		if err != nil {
			return nil, nil, err
		}
		tCfg.Checkpoint, tCfg.Resume, marks = ck, true, &ck.stepMarks
	} else {
		clock := &stepClock{}
		tCfg.Checkpoint, marks = clock, &clock.stepMarks
	}
	tr, err := trawl.NewTrawler(tCfg)
	if err != nil {
		return nil, nil, err
	}
	start := relaynet.DefaultFleetConfig(r.cfg.Seed).Start.Add(48 * time.Hour)
	tr.Deploy(sim, start)
	var h *trawl.Harvest
	begin := time.Now()
	_, err = r.span(name, func() error {
		var err error
		h, err = tr.Run(r.ctx, sim, r.pop, r.geoDB, start)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	steps := marks.steps(begin, time.Now())
	if r.store != nil && r.cfg.Stream {
		// A stored streaming study spills the harvest as an intermediate.
		set, err := r.store.Intermediates(r.key(fmt.Sprintf("int-trawl-%d", offset)))
		if err != nil {
			return nil, nil, err
		}
		if _, err := r.span("resultstore.intermediate_put", func() error { return set.Put("harvest", h.State()) }); err != nil {
			return nil, nil, err
		}
		size, err := dirBytes(filepath.Join(r.store.Dir(), "intermediates"))
		if err != nil {
			return nil, nil, err
		}
		r.res.set("resultstore.intermediate_bytes", "bytes", float64(size))
	}
	return h, steps, nil
}

// collection is the introduction's link crawl against the trawl without
// traffic.
func (r *replay) collection() error {
	d, err := r.span("webcrawl.crawl", func() error {
		wc, err := webcrawl.New(r.fabric, webcrawl.DefaultConfig())
		if err != nil {
			return err
		}
		var seeds []onion.Address
		for _, svc := range r.pop.Services {
			switch svc.Label {
			case "TorDir", "Onion Bookmarks", "SilkRoad(wiki)", "Tor Host":
				seeds = append(seeds, svc.Address)
			}
		}
		wc.Crawl(seeds)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("webcrawl.crawl_s", "s", seconds(d))
	_, _, err = r.trawlRun("trawl.run_collection", 4, false)
	return err
}

// popularity is the trawl with client traffic and the resolution of its
// request log (Table II).
func (r *replay) popularity() error {
	h, steps, err := r.trawlRun("trawl.run", 1, true)
	if err != nil {
		return err
	}
	r.res.set("trawl.run_s", "s", r.rec.Total("trawl.run"))
	r.res.set("trawl.step_p50_s", "s", median(steps))
	r.res.set("trawl.harvest_ratio", "ratio", float64(len(h.Addresses))/float64(len(r.pop.WithDescriptor())))

	start := relaynet.DefaultFleetConfig(r.cfg.Seed).Start.Add(48 * time.Hour)
	var ix *popularity.Index
	d, err := r.span("popularity.index", func() error {
		var err error
		ix, err = popularity.BuildIndexTable(h.PermIDs, start.Add(-7*24*time.Hour), start.Add(7*24*time.Hour), r.cfg.Workers, r.table)
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("popularity.index_s", "s", seconds(d))
	var res *popularity.Resolution
	d, _ = r.span("popularity.resolve", func() error {
		res = popularity.ResolveLog(h.Log, ix)
		popularity.Rank(res, func(a onion.Address) string {
			if svc, ok := r.pop.ByAddress(a); ok {
				return svc.Label
			}
			return ""
		})
		return nil
	})
	r.res.set("popularity.resolve_s", "s", seconds(d))
	r.res.set("popularity.resolved_ratio", "ratio", float64(res.ResolvedIDs)/float64(res.UniqueIDs))
	return nil
}

// published builds a simnet network over doc with every descriptor
// published.
func (r *replay) published(doc *consensus.Document, clients int) (*simnet.Network, error) {
	netCfg := simnet.DefaultConfig(r.cfg.Seed)
	netCfg.Clients = clients
	netCfg.Workers = r.cfg.Workers
	netCfg.SecretTable = r.table
	var net *simnet.Network
	_, err := r.span("simnet.publish", func() error {
		var err error
		net, err = simnet.NewNetwork(doc, r.geoDB, netCfg)
		if err != nil {
			return err
		}
		net.PublishAll(r.pop, doc.ValidAfter)
		return nil
	})
	return net, err
}

// deanon is the client-side campaign against the rank-1 Goldnet front
// (Fig. 3) and the service-side guard attack, plus one standalone
// traffic window on a network like the campaign's.
func (r *replay) deanon() error {
	doc, err := r.consensusAt(2)
	if err != nil {
		return err
	}
	net, err := r.published(doc, r.cfg.Clients)
	if err != nil {
		return err
	}
	r.res.set("simnet.publish_s", "s", r.rec.Total("simnet.publish"))
	var target, silk *hspop.Service
	for _, svc := range r.pop.Services {
		if target == nil && svc.Label == "Goldnet" {
			target = svc
		}
		if silk == nil && svc.Label == "SilkRoad" {
			silk = svc
		}
	}
	if target == nil || silk == nil {
		return fmt.Errorf("replay: population lacks the Goldnet or SilkRoad target")
	}
	if _, err := r.span("deanon.run", func() error {
		_, err := deanon.Run(r.ctx, net, r.pop, target, doc.ValidAfter, deanon.DefaultConfig(r.cfg.Seed))
		return err
	}); err != nil {
		return err
	}

	// The campaign drives its window inside deanon.Run; drive the same
	// window once more on a fresh network to time simnet on its own.
	net, err = r.published(doc, r.cfg.Clients)
	if err != nil {
		return err
	}
	var stats simnet.TrafficStats
	d, err := r.span("simnet.drive_window", func() error {
		var err error
		stats, err = net.DriveWindow(r.ctx, r.pop, doc.ValidAfter, deanon.DefaultConfig(r.cfg.Seed).Window, nil)
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("simnet.drive_window_s", "s", seconds(d))
	r.res.set("simnet.requests_per_s", "1/s", float64(stats.TotalRequests)/seconds(d))

	doc, err = r.consensusAt(3)
	if err != nil {
		return err
	}
	netCfg := simnet.DefaultConfig(r.cfg.Seed)
	netCfg.Clients = 10
	netCfg.Workers = r.cfg.Workers
	netCfg.SecretTable = r.table
	if _, err := r.span("deanon.run", func() error {
		svcNet, err := simnet.NewNetwork(doc, r.geoDB, netCfg)
		if err != nil {
			return err
		}
		_, err = deanon.RunServiceSide(svcNet, silk, doc.ValidAfter, deanon.DefaultServiceConfig(r.cfg.Seed))
		return err
	}); err != nil {
		return err
	}
	r.res.set("deanon.run_s", "s", r.rec.Total("deanon.run"))
	return nil
}

// sliceSource serves a materialized history window, as the tracking
// layer does for a non-streaming analysis.
type sliceSource struct{ docs []*consensus.Document }

func (s *sliceSource) Len() int { return len(s.docs) }

func (s *sliceSource) At(i int) (*consensus.Document, error) { return s.docs[i], nil }

// tracking is the Section VII detection over the consensus history:
// streamed through the scenario source's window ring, or materialized.
func (r *replay) tracking() error {
	scCfg := tracking.DefaultScenarioConfig(r.cfg.Seed)
	if r.cfg.TrackingDays > 0 {
		scCfg.Days = r.cfg.TrackingDays
	}
	tkCfg := tracking.DefaultConfig()
	tkCfg.Workers = r.cfg.Workers
	an, err := tracking.NewAnalyzer(tkCfg)
	if err != nil {
		return err
	}
	var sc *tracking.Scenario
	var src tracking.DocSource
	ring := scCfg.Days
	if _, err := r.span("relaynet.sim", func() error {
		if r.cfg.Stream {
			s, ss, err := tracking.NewScenarioSource(scCfg, r.cfg.WindowRing)
			sc, src = s, ss
			if ss != nil {
				ring = ss.Ring()
			}
			return err
		}
		s, err := tracking.BuildScenario(scCfg)
		if err != nil {
			return err
		}
		sc = s
		end := s.Start.Add(time.Duration(scCfg.Days) * 24 * time.Hour)
		src = &sliceSource{docs: s.History.Range(s.Start, end)}
		return nil
	}); err != nil {
		return err
	}
	end := sc.Start.Add(time.Duration(scCfg.Days) * 24 * time.Hour)
	an.SetSecretTable(onion.NewSecretIDTable(sc.Start, end))

	root := r.rec.ID()
	traced := newTracedSource(src, ring, r.rec, root, replayTrace)
	var ck tracking.Checkpointer
	if r.store != nil {
		tc, err := newTracedCheckpointer(r.store, r.key("ckpt-tracking"), r.rec, root, replayTrace, &r.ckpts)
		if err != nil {
			return err
		}
		ck = tc
	}
	t0 := r.rec.now()
	begin := time.Now()
	_, err = an.AnalyzeSource(r.ctx, traced, sc.Target, ck, 1, true)
	analyze := time.Since(begin)
	r.rec.Add(Span{ID: root, Parent: r.root, Trace: replayTrace, Name: "tracking.analyze", Start: t0, End: r.rec.now()})
	if err != nil {
		return err
	}
	r.res.set("tracking.analyze_s", "s", seconds(analyze))
	r.res.set("tracking.doc_fetch_s", "s", r.rec.Total("tracking.doc_fetch"))
	r.res.set("tracking.fold_self_s", "s", SelfTimes(r.rec.Spans())["tracking.analyze"])
	r.res.set("tracking.fetch_ratio", "ratio", float64(traced.stats.calls.Load())/float64(src.Len()))
	docs := traced.stats.derived.Load()
	if !r.cfg.Stream {
		docs = int64(src.Len())
	}
	r.res.set("relaynet.consensus_docs", "count", float64(docs))
	r.res.set("relaynet.sim_s", "s", r.rec.Total("relaynet.sim"))
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
