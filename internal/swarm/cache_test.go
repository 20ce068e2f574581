package swarm

import (
	"strings"
	"testing"
)

func TestCacheSpecDefaults(t *testing.T) {
	// withDefaults is nil-safe and value-returning: scenario specs are
	// shared pointers and must never be mutated in place.
	var nilSpec *CacheSpec
	if got := nilSpec.withDefaults().CapacityMB; got != 64 {
		t.Errorf("nil spec capacity = %d, want 64", got)
	}
	spec := &CacheSpec{}
	if got := spec.withDefaults().CapacityMB; got != 64 {
		t.Errorf("zero spec capacity = %d, want 64", got)
	}
	if spec.CapacityMB != 0 {
		t.Error("withDefaults mutated the caller's spec")
	}
	full := &CacheSpec{CapacityMB: 8, FillFetchers: 3, OriginMbps: 80}
	if got := full.withDefaults(); got != *full {
		t.Errorf("explicit spec rewritten: %+v", got)
	}
}

func TestScenarioValidateCacheSpec(t *testing.T) {
	ok := tinyScenario(4)
	ok.Cache = &CacheSpec{CapacityMB: 8}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid cache spec rejected: %v", err)
	}
	bad := []CacheSpec{
		{CapacityMB: -1},
		{FillFetchers: -1},
		{OriginMbps: -5},
	}
	for i, spec := range bad {
		scn := tinyScenario(4)
		s := spec
		scn.Cache = &s
		if err := scn.Validate(); err == nil {
			t.Errorf("bad cache spec %d (%+v) accepted", i, spec)
		}
	}
}

func TestSwarmCachedRun(t *testing.T) {
	scn := tinyScenario(12)
	scn.Cache = &CacheSpec{FillFetchers: 2}
	rep := runScenario(t, scn)
	if rep.Completed != 12 || rep.LedgerViolations != 0 {
		t.Fatalf("completed=%d ledger=%d", rep.Completed, rep.LedgerViolations)
	}
	c := rep.Cache
	if c == nil {
		t.Fatal("cached run reported no cache block")
	}
	// The caller's spec stays untouched even though the report shows the
	// defaulted capacity.
	if scn.Cache.CapacityMB != 0 || c.CapacityMB != 64 {
		t.Errorf("capacity: spec=%d report=%d", scn.Cache.CapacityMB, c.CapacityMB)
	}
	if c.Edges == 0 {
		t.Error("no edges stood up")
	}
	if c.Hits+c.Misses == 0 || c.Fills == 0 {
		t.Errorf("cache saw no demand: %+v", c)
	}
	if c.FillErrors != 0 {
		t.Errorf("%d fill errors", c.FillErrors)
	}
	if c.ServedBytes == 0 || c.OffloadRatio < 0 || c.OffloadRatio > 1 {
		t.Errorf("offload malformed: served=%d origin=%d ratio=%v",
			c.ServedBytes, c.OriginBytes, c.OffloadRatio)
	}
	if len(c.ByRank) != len(scn.Catalog) {
		t.Errorf("by-rank rows = %d, want %d", len(c.ByRank), len(scn.Catalog))
	}
	share := 0.0
	for _, rk := range c.ByRank {
		share += rk.ExpectedShare
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("expected shares sum to %v", share)
	}
	if !strings.Contains(rep.Summary(), "cache") {
		t.Error("summary omits the cache block")
	}
}

func TestSwarmUncachedRunHasNoCacheBlock(t *testing.T) {
	rep := runScenario(t, tinyScenario(4))
	if rep.Cache != nil {
		t.Fatalf("uncached run grew a cache block: %+v", rep.Cache)
	}
	if strings.Contains(rep.Summary(), "offload") {
		t.Error("summary renders a cache block for an uncached run")
	}
}

func TestShippedCacheScenarioValid(t *testing.T) {
	scn, err := LoadScenario("../../scenarios/zipf-cache.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := scn.Validate(); err != nil {
		t.Fatalf("shipped cache scenario invalid: %v", err)
	}
	if scn.Cache == nil {
		t.Fatal("zipf-cache.json carries no cache stanza")
	}
	if scn.Sessions < 500 {
		t.Errorf("sessions = %d, want the 500-session acceptance shape", scn.Sessions)
	}
	if scn.ZipfS <= 0 {
		t.Error("cache scenario needs a skewed popularity law")
	}
	if scn.Arrival.Kind != ArrivalSpike {
		t.Errorf("arrival %q, want the spike that exercises singleflight", scn.Arrival.Kind)
	}
}
