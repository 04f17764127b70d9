package geom

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeshBasics(t *testing.T) {
	m := NewMesh(4, 4)
	if m.Tiles() != 16 {
		t.Fatalf("tiles = %d", m.Tiles())
	}
	if d := m.Dist(0, 15); d != 6 {
		t.Fatalf("corner distance = %d, want 6", d)
	}
	if d := m.Dist(5, 5); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if m.MaxDist() != 6 {
		t.Fatalf("diameter = %d", m.MaxDist())
	}
}

func TestSquareMesh(t *testing.T) {
	if m := SquareMesh(64); m.W != 8 || m.H != 8 {
		t.Fatalf("64-tile mesh is %dx%d", m.W, m.H)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-square count")
		}
	}()
	SquareMesh(10)
}

func TestCoordRoundTrip(t *testing.T) {
	m := NewMesh(5, 3)
	for tile := 0; tile < m.Tiles(); tile++ {
		x, y := m.Coord(tile)
		if m.TileAt(x, y) != tile {
			t.Fatalf("round trip failed for %d", tile)
		}
	}
}

func TestNeighborsByDistanceSorted(t *testing.T) {
	m := NewMesh(4, 4)
	for tile := 0; tile < 16; tile++ {
		nb := m.NeighborsByDistance(tile)
		if len(nb) != 15 {
			t.Fatalf("tile %d has %d neighbours", tile, len(nb))
		}
		for i := 1; i < len(nb); i++ {
			di, dj := m.Dist(tile, nb[i-1]), m.Dist(tile, nb[i])
			if di > dj || (di == dj && nb[i-1] > nb[i]) {
				t.Fatalf("tile %d ordering broken at %d: %v", tile, i, nb)
			}
		}
		// First neighbours must be at distance 1.
		if m.Dist(tile, nb[0]) != 1 {
			t.Fatalf("closest neighbour of %d at distance %d", tile, m.Dist(tile, nb[0]))
		}
	}
}

func TestNeighborsExcludeSelf(t *testing.T) {
	m := NewMesh(3, 3)
	for tile := 0; tile < 9; tile++ {
		for _, nb := range m.NeighborsByDistance(tile) {
			if nb == tile {
				t.Fatalf("tile %d lists itself", tile)
			}
		}
	}
}

func TestXYRouteLengthEqualsDist(t *testing.T) {
	m := NewMesh(4, 4)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			r := m.XYRoute(a, b)
			if len(r) != m.Dist(a, b) {
				t.Fatalf("route %d->%d has %d hops, dist %d", a, b, len(r), m.Dist(a, b))
			}
			if a != b && r[len(r)-1] != b {
				t.Fatalf("route %d->%d ends at %d", a, b, r[len(r)-1])
			}
		}
	}
}

func TestXYRouteAdjacency(t *testing.T) {
	m := NewMesh(8, 8)
	r := m.XYRoute(0, 63)
	prev := 0
	for _, hop := range r {
		if m.Dist(prev, hop) != 1 {
			t.Fatalf("non-adjacent hop %d->%d", prev, hop)
		}
		prev = hop
	}
}

func TestMeanDistCenterLessThanCorner(t *testing.T) {
	m := NewMesh(8, 8)
	center := m.TileAt(3, 3)
	if m.MeanDist(center) >= m.MeanDist(0) {
		t.Fatalf("center mean %v >= corner mean %v", m.MeanDist(center), m.MeanDist(0))
	}
}

// Property: distance is a metric (symmetry + triangle inequality).
func TestDistMetricProperty(t *testing.T) {
	m := NewMesh(6, 5)
	n := m.Tiles()
	f := func(a, b, c uint8) bool {
		ta, tb, tc := int(a)%n, int(b)%n, int(c)%n
		if m.Dist(ta, tb) != m.Dist(tb, ta) {
			return false
		}
		return m.Dist(ta, tc) <= m.Dist(ta, tb)+m.Dist(tb, tc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewMeshPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMesh(0, 4)
}

// TestNeighborsByDistanceMatchesSort: the bucket fill orders every tile's
// neighbours exactly as a sort by (distance, ID) does, on every square mesh
// up to 16×16 and on rectangular ones.
func TestNeighborsByDistanceMatchesSort(t *testing.T) {
	var dims [][2]int
	for side := 1; side <= 16; side++ {
		dims = append(dims, [2]int{side, side})
	}
	dims = append(dims, [2]int{1, 7}, [2]int{7, 1}, [2]int{2, 9}, [2]int{5, 3}, [2]int{8, 4}, [2]int{3, 16})
	for _, wh := range dims {
		m := NewMesh(wh[0], wh[1])
		n := m.Tiles()
		for a := 0; a < n; a++ {
			want := make([]int, 0, n-1)
			for b := 0; b < n; b++ {
				if b != a {
					want = append(want, b)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return m.Dist(a, want[i]) < m.Dist(a, want[j]) })
			if got := m.NeighborsByDistance(a); !slices.Equal(got, want) {
				t.Fatalf("%dx%d tile %d: neighbours %v, want %v", wh[0], wh[1], a, got, want)
			}
		}
	}
}
