package chunk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGeometry(t *testing.T, dims, shape []int) *Geometry {
	t.Helper()
	g, err := NewGeometry(dims, shape)
	if err != nil {
		t.Fatalf("NewGeometry(%v, %v): %v", dims, shape, err)
	}
	return g
}

func TestGeometryValidation(t *testing.T) {
	cases := []struct {
		dims, shape []int
	}{
		{nil, nil},
		{[]int{10}, []int{10, 10}},
		{[]int{0}, []int{1}},
		{[]int{10}, []int{0}},
		{[]int{10}, []int{11}},
		{[]int{10, -3}, []int{2, 1}},
	}
	for _, c := range cases {
		if _, err := NewGeometry(c.dims, c.shape); err == nil {
			t.Errorf("NewGeometry(%v, %v) succeeded", c.dims, c.shape)
		}
	}
}

func TestGeometryPaperChunkCounts(t *testing.T) {
	// §5.5.1: with the fixed chunk shape, the 40×40×40×{50,100,1000}
	// arrays have 40, 80, and 800 chunks.
	for _, tc := range []struct {
		last, chunks int
	}{{50, 40}, {100, 80}, {1000, 800}} {
		dims := []int{40, 40, 40, tc.last}
		g := mustGeometry(t, dims, DefaultChunkShape(dims))
		if g.NumChunks() != tc.chunks {
			t.Errorf("dims %v: %d chunks, want %d", dims, g.NumChunks(), tc.chunks)
		}
	}
}

func TestGeometryLocateDecomposeRoundtrip(t *testing.T) {
	g := mustGeometry(t, []int{7, 10, 13}, []int{3, 5, 4}) // partial edge chunks
	seen := map[[2]int]bool{}
	coords := make([]int, 3)
	dst := make([]int, 3)
	for i := 0; i < 7; i++ {
		for j := 0; j < 10; j++ {
			for k := 0; k < 13; k++ {
				coords[0], coords[1], coords[2] = i, j, k
				cn, off := g.Locate(coords)
				if cn < 0 || cn >= g.NumChunks() {
					t.Fatalf("Locate(%v) chunk %d out of range", coords, cn)
				}
				if off < 0 || off >= g.ChunkCapacity() {
					t.Fatalf("Locate(%v) offset %d out of range", coords, off)
				}
				key := [2]int{cn, off}
				if seen[key] {
					t.Fatalf("Locate(%v) collides at chunk %d offset %d", coords, cn, off)
				}
				seen[key] = true
				got := g.Decompose(cn, off, dst)
				for d := 0; d < 3; d++ {
					if got[d] != coords[d] {
						t.Fatalf("Decompose(Locate(%v)) = %v", coords, got)
					}
				}
				if !g.ValidOffset(cn, off) {
					t.Fatalf("ValidOffset(Locate(%v)) = false", coords)
				}
			}
		}
	}
	if len(seen) != 7*10*13 {
		t.Fatalf("visited %d distinct locations, want %d", len(seen), 7*10*13)
	}
}

func TestGeometryValidOffsetEdges(t *testing.T) {
	// 7 cells, chunks of 3: last chunk covers cells 6..8 but only 6 is
	// in bounds.
	g := mustGeometry(t, []int{7}, []int{3})
	if g.NumChunks() != 3 {
		t.Fatalf("NumChunks = %d", g.NumChunks())
	}
	if !g.ValidOffset(2, 0) {
		t.Fatal("offset 0 of last chunk should be valid (cell 6)")
	}
	if g.ValidOffset(2, 1) || g.ValidOffset(2, 2) {
		t.Fatal("offsets past dimension end reported valid")
	}
	for off := 0; off < 3; off++ {
		if !g.ValidOffset(0, off) {
			t.Fatalf("offset %d of the first, whole chunk reported invalid", off)
		}
	}
}

func TestGeometryChunkCoordsAndExtent(t *testing.T) {
	g := mustGeometry(t, []int{40, 40, 40, 100}, []int{20, 20, 20, 10})
	last := g.NumChunks() - 1
	// The last chunk starts at (20, 20, 20, 90) and is whole.
	if cn, off := g.Locate([]int{20, 20, 20, 90}); cn != last || off != 0 {
		t.Fatalf("Locate(start of last) = (%d, %d), want (%d, 0)", cn, off, last)
	}
	if !g.ValidOffset(last, g.ChunkCapacity()-1) {
		t.Fatal("the last offset of the whole last chunk reported invalid")
	}
	// The in-bounds cells of all chunks add up to the array's cells.
	g = mustGeometry(t, []int{7, 5, 3}, []int{3, 2, 2})
	var sum int64
	for cn := 0; cn < g.NumChunks(); cn++ {
		for off := 0; off < g.ChunkCapacity(); off++ {
			if g.ValidOffset(cn, off) {
				sum++
			}
		}
	}
	if sum != g.NumCells() {
		t.Fatalf("chunk cell counts sum to %d, want %d", sum, g.NumCells())
	}
}

func TestGeometryCheckCoords(t *testing.T) {
	g := mustGeometry(t, []int{4, 4}, []int{2, 2})
	if err := g.CheckCoords([]int{3, 3}); err != nil {
		t.Fatalf("CheckCoords valid: %v", err)
	}
	for _, bad := range [][]int{{4, 0}, {0, -1}, {0}, {0, 0, 0}} {
		if err := g.CheckCoords(bad); err == nil {
			t.Errorf("CheckCoords(%v) succeeded", bad)
		}
	}
}

func TestGeometryMarshalRoundtrip(t *testing.T) {
	g := mustGeometry(t, []int{40, 41, 42, 103}, []int{20, 20, 20, 10})
	enc := g.Marshal()
	got, used, err := UnmarshalGeometry(enc)
	if err != nil {
		t.Fatalf("UnmarshalGeometry: %v", err)
	}
	if used != len(enc) {
		t.Fatalf("UnmarshalGeometry consumed %d of %d bytes", used, len(enc))
	}
	if !got.Equal(g) {
		t.Fatalf("roundtrip mismatch: %v vs %v", got, g)
	}
	if _, _, err := UnmarshalGeometry(enc[:1]); err == nil {
		t.Fatal("UnmarshalGeometry accepted truncated input")
	}
	if g.String() == "" {
		t.Fatal("String empty")
	}
}

// Property: Locate/Decompose are inverse bijections on random geometries.
func TestGeometryQuickRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 1
		dims := make([]int, n)
		shape := make([]int, n)
		for i := range dims {
			dims[i] = rng.Intn(30) + 1
			shape[i] = rng.Intn(dims[i]) + 1
		}
		g, err := NewGeometry(dims, shape)
		if err != nil {
			return false
		}
		coords := make([]int, n)
		for trial := 0; trial < 50; trial++ {
			for i := range coords {
				coords[i] = rng.Intn(dims[i])
			}
			cn, off := g.Locate(coords)
			got := g.Decompose(cn, off, nil)
			for i := range coords {
				if got[i] != coords[i] {
					return false
				}
			}
			if !g.ValidOffset(cn, off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
