package trawl

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"torhs/internal/geo"
	"torhs/internal/hspop"
	"torhs/internal/relaynet"
)

// runHarvest runs a small trawl end to end and returns the harvest.
func runHarvest(t *testing.T, seed int64) *Harvest {
	t.Helper()
	fleet := relaynet.DefaultFleetConfig(seed)
	fleet.Days = 1
	fleet.InitialRelays = 300
	fleet.FinalRelays = 300
	sim, err := relaynet.NewSim(fleet)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(seed)
	cfg.IPs = 15
	cfg.Steps = 3
	cfg.ClientConfig.Clients = 300
	tr, err := NewTrawler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	popCfg := hspop.TestConfig(seed)
	popCfg.Scale = 0.02
	pop, err := hspop.Generate(context.Background(), popCfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := geo.NewDB(geo.DefaultBotnetMix())
	if err != nil {
		t.Fatal(err)
	}
	start := fleet.Start.Add(48 * time.Hour)
	tr.Deploy(sim, start)
	h, err := tr.Run(context.Background(), sim, pop, db, start)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// assertHarvestAggregatesEqual compares every downstream-visible output
// of two harvests.
func assertHarvestAggregatesEqual(t *testing.T, want, got *Harvest) {
	t.Helper()
	if !reflect.DeepEqual(want.Addresses, got.Addresses) {
		t.Errorf("Addresses diverged: %d vs %d", len(want.Addresses), len(got.Addresses))
	}
	if !reflect.DeepEqual(want.PermIDs, got.PermIDs) {
		t.Error("PermIDs diverged")
	}
	if want.DescriptorsSeen != got.DescriptorsSeen {
		t.Errorf("DescriptorsSeen = %d, want %d", got.DescriptorsSeen, want.DescriptorsSeen)
	}
	if !reflect.DeepEqual(want.StepCoverage, got.StepCoverage) {
		t.Errorf("StepCoverage = %v, want %v", got.StepCoverage, want.StepCoverage)
	}
	if want.PublishedIDsSeen != got.PublishedIDsSeen {
		t.Errorf("PublishedIDsSeen = %d, want %d", got.PublishedIDsSeen, want.PublishedIDsSeen)
	}
	if want.RequestedPublishedIDs != got.RequestedPublishedIDs {
		t.Errorf("RequestedPublishedIDs = %d, want %d", got.RequestedPublishedIDs, want.RequestedPublishedIDs)
	}
	if want.CollectedFraction != got.CollectedFraction {
		t.Errorf("CollectedFraction = %v, want %v", got.CollectedFraction, want.CollectedFraction)
	}
	if !want.Start.Equal(got.Start) || !want.End.Equal(got.End) {
		t.Error("attack window diverged")
	}
	if want.Log.Total() != got.Log.Total() ||
		want.Log.UniqueIDs() != got.Log.UniqueIDs() ||
		want.Log.FoundFraction() != got.Log.FoundFraction() {
		t.Error("merged log scalar aggregates diverged")
	}
	if !reflect.DeepEqual(want.Log.CountsByID(), got.Log.CountsByID()) {
		t.Error("merged log per-ID counts diverged")
	}
}

// TestHarvestStateRoundTrip pins the intermediate-artefact encoding: a
// harvest must survive State → gob → HarvestFromState with every
// aggregate intact. The harvest log is per-ID counts only (the former
// "compact" mode), so that is the one leg left.
func TestHarvestStateRoundTrip(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		h := runHarvest(t, 22)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h.State()); err != nil {
			t.Fatal(err)
		}
		var st HarvestState
		if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
			t.Fatal(err)
		}
		assertHarvestAggregatesEqual(t, h, HarvestFromState(&st))
	})
}
