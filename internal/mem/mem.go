// Package mem models the off-chip memory system: a set of memory controllers
// (MCUs) placed on the mesh edge, each with a fixed access latency and a
// bandwidth-derived service rate (Table II: 80 ns latency, 12.6 GB/s per
// channel, 4/8 MCUs for 16/64 cores). Queueing is modelled with a per-MCU
// busy horizon: a request arriving while the channel is busy waits for its
// turn, which is how bandwidth saturation by thrashing workloads turns into
// latency for everyone sharing the channel.
package mem

import (
	"fmt"

	"delta/internal/geom"
)

// Config describes the memory system.
type Config struct {
	Controllers   int
	LatencyCycles uint64 // fixed access latency (80 ns @ 4 GHz = 320)
	ServiceCycles uint64 // per-line channel occupancy (64 B / 12.6 GB/s @ 4 GHz ≈ 20)
}

// DefaultConfig matches Table II for the given core count.
func DefaultConfig(cores int) Config {
	mcus := 4
	if cores > 16 {
		mcus = 8
	}
	return Config{Controllers: mcus, LatencyCycles: 320, ServiceCycles: 20}
}

// Stats counts per-controller activity.
type Stats struct {
	Requests   uint64
	QueueDelay uint64 // total cycles spent waiting for the channel
}

// System is the set of controllers.
type System struct {
	cfg   Config
	tiles []int // mesh tile hosting each controller
	busy  []uint64
	stats []Stats
}

// New places cfg.Controllers controllers evenly along the mesh edges and
// returns the system. It panics on a zero controller count.
func New(topo *geom.Mesh, cfg Config) *System {
	if cfg.Controllers <= 0 {
		panic(fmt.Sprintf("mem: invalid controller count %d", cfg.Controllers))
	}
	s := &System{
		cfg:   cfg,
		busy:  make([]uint64, cfg.Controllers),
		stats: make([]Stats, cfg.Controllers),
	}
	s.tiles = edgeTiles(topo, cfg.Controllers)
	return s
}

// edgeTiles picks n tiles spread around the mesh perimeter, matching the
// usual placement of memory controllers on tiled CMPs.
func edgeTiles(topo *geom.Mesh, n int) []int {
	var perim []int
	w, h := topo.W, topo.H
	for x := 0; x < w; x++ {
		perim = append(perim, topo.TileAt(x, 0))
	}
	for y := 1; y < h; y++ {
		perim = append(perim, topo.TileAt(w-1, y))
	}
	for x := w - 2; x >= 0; x-- {
		perim = append(perim, topo.TileAt(x, h-1))
	}
	for y := h - 2; y >= 1; y-- {
		perim = append(perim, topo.TileAt(0, y))
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = perim[i*len(perim)/n]
	}
	return out
}

// Controllers returns the number of MCUs.
func (s *System) Controllers() int { return s.cfg.Controllers }

// ControllerTile returns the mesh tile hosting controller m.
func (s *System) ControllerTile(m int) int { return s.tiles[m] }

// ControllerFor returns the MCU serving a line address (line-interleaved
// across channels, the common default).
func (s *System) ControllerFor(lineAddr uint64) int {
	return int(lineAddr % uint64(len(s.tiles)))
}

// Access issues a line fetch to the controller owning lineAddr at cycle now
// and returns (latency, controller tile). Latency includes queueing behind
// earlier requests on the same channel but not NoC time; the caller adds the
// mesh traversal to and from the controller tile.
func (s *System) Access(lineAddr uint64, now uint64) (uint64, int) {
	m := s.ControllerFor(lineAddr)
	start := now
	if s.busy[m] > start {
		start = s.busy[m]
	}
	s.busy[m] = start + s.cfg.ServiceCycles
	wait := start - now
	s.stats[m].Requests++
	s.stats[m].QueueDelay += wait
	return wait + s.cfg.LatencyCycles, s.tiles[m]
}

// Sub returns the counter deltas since a previous snapshot; the telemetry
// sampler uses it to derive windowed queue-depth series.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Requests:   s.Requests - prev.Requests,
		QueueDelay: s.QueueDelay - prev.QueueDelay,
	}
}

// TotalStats sums all controllers.
func (s *System) TotalStats() Stats {
	var t Stats
	for _, st := range s.stats {
		t.Requests += st.Requests
		t.QueueDelay += st.QueueDelay
	}
	return t
}

// AvgQueueDelay returns mean queueing cycles per request.
func (s *System) AvgQueueDelay() float64 {
	t := s.TotalStats()
	if t.Requests == 0 {
		return 0
	}
	return float64(t.QueueDelay) / float64(t.Requests)
}
