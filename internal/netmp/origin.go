package netmp

// Origin tier: a path no longer binds to a single server address but to
// a ranked OriginSet — N origin addresses in preference order, each
// gated by its own circuit breaker. Dials and redials go to the
// highest-ranked origin whose breaker admits traffic, so a sick origin
// (breaker open) fails over automatically and a recovered one takes the
// traffic back — the MP-DASH preference ordering applied to origins
// instead of radio links. Hedged requests (hedge.go) use the set to find
// a healthy backup origin distinct from the one currently serving.

import (
	"fmt"
	"strings"
	"sync"
)

// origin is one ranked member of an OriginSet.
type origin struct {
	addr    string
	breaker *CircuitBreaker
}

// OriginSet ranks a path's origin addresses in preference order (index 0
// is most preferred) and tracks which one currently carries the path's
// connection. Safe for concurrent use.
type OriginSet struct {
	name    string
	origins []*origin

	mu        sync.Mutex
	cur       int
	failovers int64
}

// NewOriginSet builds a ranked origin set for a path. At least one
// address is required, and none may be empty; pol bounds every origin's
// breaker.
func NewOriginSet(name string, addrs []string, pol BreakerPolicy) (*OriginSet, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("netmp: path %s needs at least one origin", name)
	}
	set := &OriginSet{name: name}
	for i, a := range addrs {
		if strings.TrimSpace(a) == "" {
			return nil, fmt.Errorf("netmp: path %s: origin %d has an empty address", name, i)
		}
		set.origins = append(set.origins, &origin{addr: a, breaker: NewCircuitBreaker(pol)})
	}
	return set, nil
}

// SplitOrigins parses a comma-separated ranked origin list, trimming
// white space and dropping empty entries, so "a,b," is a and b.
func SplitOrigins(list string) []string {
	var out []string
	for _, a := range strings.Split(list, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Size returns the number of ranked origins.
func (s *OriginSet) Size() int { return len(s.origins) }

// Failovers returns how many times the set has switched origins.
func (s *OriginSet) Failovers() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failovers
}

// Current returns the address of the origin currently carrying the path.
func (s *OriginSet) Current() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.origins[s.cur].addr
}

// CurrentState returns the current origin's breaker state.
func (s *OriginSet) CurrentState() BreakerState {
	s.mu.Lock()
	o := s.origins[s.cur]
	s.mu.Unlock()
	return o.breaker.State()
}

// States returns every origin's breaker state in rank order.
func (s *OriginSet) States() []BreakerState {
	out := make([]BreakerState, len(s.origins))
	for i, o := range s.origins {
		out[i] = o.breaker.State()
	}
	return out
}

// pick selects the origin for the next dial: the highest-ranked origin
// whose breaker admits traffic (Allow — half-open probe slots are
// consumed here). Picking a different origin than the current one counts
// a failover. A single-origin set always returns its sole origin — with
// nowhere to fail over, refusing it would only kill the path, and the
// supervisor's retry budgets already bound the damage. ok=false means
// every breaker refused; the caller should back off and retry, letting a
// cooldown elapse.
func (s *OriginSet) pick() (*origin, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range s.origins {
		if o.breaker.Allow() {
			if i != s.cur {
				s.failovers++
				s.cur = i
			}
			return o, true
		}
	}
	if len(s.origins) == 1 {
		return s.origins[0], true
	}
	return nil, false
}

// pickSkip returns the highest-ranked origin not in skip, regardless of
// breaker state, updating the current origin (and counting a failover on
// a switch). The initial dial uses it to try each distinct origin at
// most once: a refused dial rarely trips a fresh breaker, so pick()
// alone would hand back the same dead rank-0 address until the attempt
// budget ran out.
func (s *OriginSet) pickSkip(skip map[*origin]bool) (*origin, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, o := range s.origins {
		if skip[o] {
			continue
		}
		if i != s.cur {
			s.failovers++
			s.cur = i
		}
		return o, true
	}
	return nil, false
}

// current returns the origin the path last dialed.
func (s *OriginSet) current() *origin {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.origins[s.cur]
}

// backup returns a healthy origin distinct from the current one for a
// hedged request, preferring higher rank. ok=false when no such origin
// exists (single-origin set, or all alternatives tripped).
func (s *OriginSet) backup() (*origin, bool) {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	for i, o := range s.origins {
		if i != cur && o.breaker.Healthy() {
			return o, true
		}
	}
	return nil, false
}

// OriginStats is a snapshot of one ranked origin's health.
type OriginStats struct {
	Addr    string
	State   BreakerState
	Trips   int64
	Current bool
}

// Stats returns per-origin snapshots in rank order.
func (s *OriginSet) Stats() []OriginStats {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	out := make([]OriginStats, len(s.origins))
	for i, o := range s.origins {
		out[i] = OriginStats{
			Addr:    o.addr,
			State:   o.breaker.State(),
			Trips:   o.breaker.Trips(),
			Current: i == cur,
		}
	}
	return out
}

// recordOutcome feeds one request outcome on o into its breaker.
func (o *origin) recordOutcome(err error) {
	if err == nil {
		o.breaker.RecordSuccess()
	} else {
		o.breaker.RecordFailure(err)
	}
}
