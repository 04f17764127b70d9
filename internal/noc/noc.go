// Package noc models the on-chip mesh interconnect: dimension-ordered
// routing over the geom mesh, a fixed per-hop latency (Table II: 3-cycle
// pipelined routers + 1-cycle links = 4 cycles/hop), and per-class message
// accounting. The accounting backs the paper's Section IV-E2 message-overhead
// analysis, which compares DELTA's control traffic against ordinary L2-miss
// traffic.
package noc

import (
	"delta/internal/geom"
)

// Class labels a message for accounting.
type Class int

const (
	// ClassData covers LLC requests/fills and memory traffic.
	ClassData Class = iota
	// ClassCoherence covers directory/invalidation traffic.
	ClassCoherence
	// ClassControl covers DELTA's challenges, responses and gain updates,
	// and the centralized scheme's collect/broadcast messages.
	ClassControl
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassCoherence:
		return "coherence"
	case ClassControl:
		return "control"
	}
	return "unknown"
}

// Config describes the interconnect.
type Config struct {
	HopCycles uint64 // per-hop latency
	LinkStats bool   // maintain per-link flit counters (slower)
	TrackUtil bool
}

// DefaultConfig matches Table II.
func DefaultConfig() Config { return Config{HopCycles: 4} }

// Stats aggregates traffic counts.
type Stats struct {
	Messages [3]uint64 // by class
	Hops     [3]uint64
}

// Total returns the total message count.
func (s *Stats) Total() uint64 {
	return s.Messages[ClassData] + s.Messages[ClassCoherence] + s.Messages[ClassControl]
}

// ControlFraction returns control messages as a fraction of all messages;
// the paper reports ~0.1% for DELTA in the worst case.
func (s *Stats) ControlFraction() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Messages[ClassControl]) / float64(t)
}

// TotalHops returns the total flit-hop count across classes.
func (s Stats) TotalHops() uint64 {
	return s.Hops[ClassData] + s.Hops[ClassCoherence] + s.Hops[ClassControl]
}

// Sub returns the counter deltas since a previous snapshot; the telemetry
// sampler uses it to turn cumulative counts into windowed time series.
func (s Stats) Sub(prev Stats) Stats {
	var d Stats
	for c := 0; c < int(numClasses); c++ {
		d.Messages[c] = s.Messages[c] - prev.Messages[c]
		d.Hops[c] = s.Hops[c] - prev.Hops[c]
	}
	return d
}

// Mesh is the interconnect instance.
type Mesh struct {
	cfg   Config
	topo  *geom.Mesh
	links map[[2]int]uint64

	Stats Stats
}

// New builds an interconnect over the given topology.
func New(topo *geom.Mesh, cfg Config) *Mesh {
	m := &Mesh{cfg: cfg, topo: topo}
	if cfg.LinkStats {
		m.links = make(map[[2]int]uint64)
	}
	return m
}

// DirectedLinks returns the number of directed mesh links, the denominator
// of the telemetry sampler's link-utilization series.
func (m *Mesh) DirectedLinks() int {
	w, h := m.topo.W, m.topo.H
	return 2 * (w*(h-1) + h*(w-1))
}

// HopCycles returns the configured per-hop latency.
func (m *Mesh) HopCycles() uint64 { return m.cfg.HopCycles }

// Latency returns the one-way latency between two tiles and records the
// message. src == dst costs zero and is not counted as network traffic.
func (m *Mesh) Latency(src, dst int, class Class) uint64 {
	if src == dst {
		return 0
	}
	hops := uint64(m.topo.Dist(src, dst))
	m.Stats.Messages[class]++
	m.Stats.Hops[class] += hops
	if m.links != nil {
		prev := src
		for _, hop := range m.topo.XYRoute(src, dst) {
			m.links[[2]int{prev, hop}]++
			prev = hop
		}
	}
	return hops * m.cfg.HopCycles
}

// RoundTrip returns the request+response latency between two tiles, counting
// both messages.
func (m *Mesh) RoundTrip(src, dst int, class Class) uint64 {
	return m.Latency(src, dst, class) + m.Latency(dst, src, class)
}

// PeekLatency computes latency without recording traffic; used by monitors
// and placement heuristics that reason about costs without generating
// messages.
func (m *Mesh) PeekLatency(src, dst int) uint64 {
	if src == dst {
		return 0
	}
	return uint64(m.topo.Dist(src, dst)) * m.cfg.HopCycles
}

// LinkLoad returns the flit count for the directed link a->b (only when
// LinkStats is enabled).
func (m *Mesh) LinkLoad(a, b int) uint64 {
	if m.links == nil {
		return 0
	}
	return m.links[[2]int{a, b}]
}

// MaxLinkLoad returns the most loaded link's count.
func (m *Mesh) MaxLinkLoad() uint64 {
	var max uint64
	for _, v := range m.links {
		if v > max {
			max = v
		}
	}
	return max
}
