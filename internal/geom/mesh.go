// Package geom models the 2D mesh topology of a tiled CMP: tile coordinates,
// Manhattan (XY-routing) hop distances and deterministic nearest-neighbour
// orderings. DELTA's inter-bank algorithm challenges tiles in increasing
// order of hop distance, so the ordering here directly shapes where capacity
// expands first.
package geom

import "fmt"

// Mesh is a W×H grid of tiles. Tile IDs are row-major: tile (x, y) has ID
// y*W + x. A 16-core chip is a 4×4 mesh, a 64-core chip is 8×8, matching the
// paper's Table II.
type Mesh struct {
	W, H int

	// neighborsByDist[t] lists every other tile, sorted by (distance, id).
	neighborsByDist [][]int
	// dist is the flattened distance matrix.
	dist []uint8
}

// NewMesh builds a mesh and precomputes distance tables. It panics on
// non-positive dimensions; meshes are static configuration, so failing loudly
// at construction is the right behaviour.
func NewMesh(w, h int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("geom: invalid mesh %dx%d", w, h))
	}
	n := w * h
	m := &Mesh{W: w, H: h}
	m.dist = make([]uint8, n*n)
	for a := 0; a < n; a++ {
		ax, ay := a%w, a/w
		for b := 0; b < n; b++ {
			bx, by := b%w, b/w
			d := abs(ax-bx) + abs(ay-by)
			if d > 255 {
				panic("geom: mesh too large for uint8 distances")
			}
			m.dist[a*n+b] = uint8(d)
		}
	}
	// Order each tile's neighbours with a counting sort on distance: filling
	// the distance buckets in ID order breaks ties by ID. All lists share one
	// backing array, capped per tile so no caller's append can spill.
	all := make([]int, n*(n-1))
	start := make([]int, m.MaxDist()+2)
	m.neighborsByDist = make([][]int, n)
	for a := 0; a < n; a++ {
		da := m.dist[a*n : a*n+n]
		clear(start)
		for b, d := range da {
			if b != a {
				start[d+1]++
			}
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		others := all[a*(n-1) : (a+1)*(n-1) : (a+1)*(n-1)]
		for b, d := range da {
			if b != a {
				others[start[d]] = b
				start[d]++
			}
		}
		m.neighborsByDist[a] = others
	}
	return m
}

// SquareMesh builds an n-tile square mesh; n must be a perfect square.
func SquareMesh(tiles int) *Mesh {
	side := 1
	for side*side < tiles {
		side++
	}
	if side*side != tiles {
		panic(fmt.Sprintf("geom: %d tiles is not a square mesh", tiles))
	}
	return NewMesh(side, side)
}

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.W * m.H }

// Dist returns the XY-routing hop distance between two tiles.
func (m *Mesh) Dist(a, b int) int {
	return int(m.dist[a*m.Tiles()+b])
}

// Coord returns the (x, y) position of a tile.
func (m *Mesh) Coord(t int) (x, y int) { return t % m.W, t / m.W }

// TileAt returns the tile ID at (x, y).
func (m *Mesh) TileAt(x, y int) int { return y*m.W + x }

// NeighborsByDistance returns every tile other than t, ordered by increasing
// hop distance (ties broken by tile ID). The slice is shared; callers must
// not mutate it.
func (m *Mesh) NeighborsByDistance(t int) []int { return m.neighborsByDist[t] }

// MaxDist returns the mesh diameter in hops.
func (m *Mesh) MaxDist() int { return (m.W - 1) + (m.H - 1) }

// MeanDist returns the average hop distance from tile t to all other tiles;
// used by locality-aware placement heuristics and reported in statistics.
func (m *Mesh) MeanDist(t int) float64 {
	n := m.Tiles()
	if n == 1 {
		return 0
	}
	sum := 0
	for b := 0; b < n; b++ {
		sum += m.Dist(t, b)
	}
	return float64(sum) / float64(n-1)
}

// XYRoute returns the sequence of tiles a message visits travelling from a to
// b under dimension-ordered (X then Y) routing, excluding a and including b.
// The NoC model uses only the hop count, but link-utilization accounting
// walks the route.
func (m *Mesh) XYRoute(a, b int) []int {
	if a == b {
		return nil
	}
	route := make([]int, 0, m.Dist(a, b))
	x, y := m.Coord(a)
	bx, by := m.Coord(b)
	for x != bx {
		if x < bx {
			x++
		} else {
			x--
		}
		route = append(route, m.TileAt(x, y))
	}
	for y != by {
		if y < by {
			y++
		} else {
			y--
		}
		route = append(route, m.TileAt(x, y))
	}
	return route
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
