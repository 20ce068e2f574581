package swarm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mpdash/internal/cache"
	"mpdash/internal/dash"
	"mpdash/internal/netmp"
)

// The server tier: every session streams from real netmp.ChunkServers.
// Servers are grouped by catalog video; sessions of the same video share
// the same shaped origins, so they contend for the same bottleneck the
// way a population behind one CDN edge does. Only the groups the plan
// actually references are started.

// originGroup is one video's origin addresses per path.
type originGroup struct {
	wifi, lte []string
}

// serverMeta remembers what the chaos executor needs to target one
// origin mid-run: its link class ("wifi"/"lte"), its rank within its
// group's class, its current shaped rate, and its original rate (0 =
// unshaped) so capacity restores can undo compounded drops.
type serverMeta struct {
	kind        string
	rank        int
	rate, rate0 float64
}

// tier owns every running server of a swarm. With a cache spec it also
// owns the edge layer: the groups' addresses then point at the edges,
// and the origins behind them are only reachable through miss fills.
type tier struct {
	groups  map[int]originGroup // by catalog index
	servers []*netmp.ChunkServer
	meta    []serverMeta

	store *cache.Cache // shared across every edge; nil = no cache tier
	edges []*netmp.EdgeServer
}

// startTier launches the origin groups referenced by the plan. videos is
// indexed like the catalog.
func startTier(s *Scenario, videos []*dash.Video, plan []SessionSpec) (*tier, error) {
	var faults *netmp.FaultPlan
	if f := s.Servers.Faults; f != nil {
		faults = &netmp.FaultPlan{
			Seed:        s.Seed ^ 0x5eed0005,
			ResetProb:   f.ResetProb,
			StallProb:   f.StallProb,
			CloseProb:   f.CloseProb,
			CorruptProb: f.CorruptProb,
			StallFor:    time.Duration(f.StallForMs) * time.Millisecond,
		}
	}
	t := &tier{groups: make(map[int]originGroup)}
	if s.Cache != nil {
		t.store = cache.New(cache.Config{CapacityBytes: int64(s.Cache.withDefaults().CapacityMB) << 20})
	}
	start := func(v *dash.Video, kind string, rank int, mbps float64) (string, error) {
		var plan *netmp.FaultPlan
		if faults != nil {
			p := *faults // distinct draw streams per server
			p.Seed = faults.Seed + int64(len(t.servers))
			plan = &p
		}
		srv, err := netmp.NewChunkServerWithFaults(v, mbps, plan)
		if err != nil {
			return "", err
		}
		srv.SetLimits(netmp.ServerLimits{
			MaxConns:           s.Servers.MaxConns,
			MaxRequestsPerConn: s.Servers.MaxRequestsPerConn,
		})
		t.servers = append(t.servers, srv)
		t.meta = append(t.meta, serverMeta{kind: kind, rank: rank, rate: mbps, rate0: mbps})
		return srv.Addr(), nil
	}
	for _, spec := range plan {
		k := spec.Video
		if _, ok := t.groups[k]; ok {
			continue
		}
		// With a cache tier the servers' rates shape the edges' client-
		// facing downlinks; the origins behind them run at the backhaul
		// rate.
		wifiRate, lteRate := s.Servers.WiFiMbps, s.Servers.LTEMbps
		if s.Cache != nil {
			wifiRate, lteRate = s.Cache.OriginMbps, s.Cache.OriginMbps
		}
		var g originGroup
		for o := 0; o < s.Servers.WiFiOrigins; o++ {
			addr, err := start(videos[k], "wifi", o, wifiRate)
			if err != nil {
				t.close()
				return nil, fmt.Errorf("swarm: start wifi origin: %w", err)
			}
			g.wifi = append(g.wifi, addr)
		}
		for o := 0; o < s.Servers.LTEOrigins; o++ {
			addr, err := start(videos[k], "lte", o, lteRate)
			if err != nil {
				t.close()
				return nil, fmt.Errorf("swarm: start lte origin: %w", err)
			}
			g.lte = append(g.lte, addr)
		}
		if s.Cache != nil {
			fronted, err := t.frontWithEdges(s, videos[k], g)
			if err != nil {
				t.close()
				return nil, err
			}
			g = fronted
		}
		t.groups[k] = g
	}
	return t, nil
}

// frontWithEdges starts one edge per path class over g's origins and
// returns a group whose addresses point at the edges. Every edge shares
// the tier's one store, so a chunk filled through any edge — either
// path, any video — is a hit for the whole run.
func (t *tier) frontWithEdges(s *Scenario, v *dash.Video, g originGroup) (originGroup, error) {
	c := s.Cache.withDefaults()
	pol := func(rate float64) netmp.EdgePolicy {
		return netmp.EdgePolicy{RateMbps: rate, FillFetchers: c.FillFetchers}
	}
	we, err := netmp.NewEdgeServer(v, v.Name, g.wifi, t.store, pol(s.Servers.WiFiMbps))
	if err != nil {
		return g, fmt.Errorf("swarm: start wifi edge: %w", err)
	}
	t.edges = append(t.edges, we)
	le, err := netmp.NewEdgeServer(v, v.Name, g.lte, t.store, pol(s.Servers.LTEMbps))
	if err != nil {
		return g, fmt.Errorf("swarm: start lte edge: %w", err)
	}
	t.edges = append(t.edges, le)
	return originGroup{wifi: []string{we.Addr()}, lte: []string{le.Addr()}}, nil
}

// applyDrop rescales every shaped origin's rate by its link class's
// factor (0 or 1 = unchanged) and reports how many origins changed.
// Unshaped origins (rate 0) cannot drop multiplicatively and are left
// alone. Repeated drops compound; applyRestore undoes them all.
func (t *tier) applyDrop(wifiFactor, lteFactor float64) int {
	changed := 0
	for i, srv := range t.servers {
		factor := wifiFactor
		if t.meta[i].kind == "lte" {
			factor = lteFactor
		}
		if factor <= 0 || factor == 1 || t.meta[i].rate <= 0 {
			continue
		}
		t.meta[i].rate *= factor
		srv.SetRateMbps(t.meta[i].rate)
		changed++
	}
	return changed
}

// applyRestore resets every shaped origin to its original rate and
// reports how many actually changed.
func (t *tier) applyRestore() int {
	changed := 0
	for i, srv := range t.servers {
		if t.meta[i].rate0 <= 0 || t.meta[i].rate == t.meta[i].rate0 {
			continue
		}
		t.meta[i].rate = t.meta[i].rate0
		srv.SetRateMbps(t.meta[i].rate)
		changed++
	}
	return changed
}

// applyFaultProbs installs one fault mix on every origin (nil = clear
// to zero), preserving each server's cumulative FaultStats. seed keys
// the draw streams of origins that started without a fault plan.
func (t *tier) applyFaultProbs(f *FaultSpec, seed int64) int {
	mix := FaultSpec{}
	if f != nil {
		mix = *f
	}
	for i, srv := range t.servers {
		srv.SetFaultProbs(seed+int64(i), mix.ResetProb, mix.StallProb, mix.CloseProb, mix.CorruptProb)
	}
	return len(t.servers)
}

// matchTargets returns the server indexes an event's (path, rank)
// selector resolves to. path "" matches both classes; rank -1 matches
// every rank.
func (t *tier) matchTargets(path string, rank int) []int {
	var idx []int
	for i := range t.servers {
		if path != "" && t.meta[i].kind != path {
			continue
		}
		if rank != -1 && t.meta[i].rank != rank {
			continue
		}
		idx = append(idx, i)
	}
	return idx
}

// crash kills the selected origins (concurrently: each Crash waits for
// its handlers to quiesce) and reports how many went down.
func (t *tier) crash(path string, rank int) int {
	idx := t.matchTargets(path, rank)
	var wg sync.WaitGroup
	for _, i := range idx {
		wg.Add(1)
		go func(s *netmp.ChunkServer) {
			defer wg.Done()
			s.Crash()
		}(t.servers[i])
	}
	wg.Wait()
	return len(idx)
}

// restart re-listens the selected crashed origins on their original
// addresses, reporting how many came back (and any rebind errors).
func (t *tier) restart(path string, rank int) (int, error) {
	idx := t.matchTargets(path, rank)
	n := 0
	var errs []error
	for _, i := range idx {
		if err := t.servers[i].Restart(); err != nil {
			errs = append(errs, err)
			continue
		}
		n++
	}
	return n, errors.Join(errs...)
}

// tierDrainTimeout bounds the graceful per-server drain at teardown
// before falling back to an abrupt Close.
const tierDrainTimeout = 3 * time.Second

// close retires every server: the edge layer first (so in-flight fills
// stop pulling from origins), then a bounded graceful Drain per origin
// (so end-of-run connection teardown is clean FINs, not resets that
// would read like injected faults in FaultStats), then Close — which
// doubles as the fallback that unblocks a drain stuck on a lingering
// handler.
func (t *tier) close() error {
	edgeErrs := make([]error, len(t.edges))
	var ewg sync.WaitGroup
	for i, e := range t.edges {
		ewg.Add(1)
		go func(i int, e *netmp.EdgeServer) {
			defer ewg.Done()
			edgeErrs[i] = e.Close()
		}(i, e)
	}
	ewg.Wait()
	errs := make([]error, len(t.servers))
	var wg sync.WaitGroup
	for i, s := range t.servers {
		wg.Add(1)
		go func(i int, s *netmp.ChunkServer) {
			defer wg.Done()
			drained := make(chan struct{})
			go func() {
				s.Drain()
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(tierDrainTimeout):
			}
			errs[i] = s.Close() // Close unblocks a stuck Drain's wait
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errors.Join(edgeErrs...), errors.Join(errs...))
}

// currentConns sums admitted connections across the tier.
func (t *tier) currentConns() int {
	n := 0
	for _, s := range t.servers {
		n += s.CurrentConns()
	}
	return n
}

// ServerReport aggregates the tier's server-side counters.
type ServerReport struct {
	Origins int `json:"origins"`
	// ServedBytes is payload written across every origin.
	ServedBytes int64 `json:"served_bytes"`
	// PeakConns is the highest simultaneous admitted-connection count
	// observed across the tier (sampled).
	PeakConns int `json:"peak_conns"`
	// Overload self-protection counters, summed across origins.
	RejectedConns   int64 `json:"rejected_conns"`
	CappedConns     int64 `json:"capped_conns"`
	PanicsRecovered int64 `json:"panics_recovered"`
	AcceptRetries   int64 `json:"accept_retries"`
	// InjectedFaults totals the chaos plan's injected faults.
	InjectedFaults int64 `json:"injected_faults"`
}

// report snapshots the tier's counters (peak is supplied by the sampler).
func (t *tier) report(peak int) ServerReport {
	r := ServerReport{Origins: len(t.servers), PeakConns: peak}
	for _, s := range t.servers {
		r.ServedBytes += s.ServedBytes()
		o := s.OverloadStats()
		r.RejectedConns += o.RejectedConns
		r.CappedConns += o.CappedConns
		r.PanicsRecovered += o.PanicsRecovered
		r.AcceptRetries += o.AcceptRetries
		r.InjectedFaults += s.FaultStats().Total()
	}
	return r
}
