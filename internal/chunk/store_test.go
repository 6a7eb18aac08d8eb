package chunk

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/storage"
)

func newStorePool(frames int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewMemDiskManager(), frames)
}

func buildRandomStore(t *testing.T, bp *storage.BufferPool, g *Geometry, codec Codec,
	density float64, seed int64) (*Store, map[string]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(g, codec)
	ref := map[string]int64{}
	dims := g.Dims()
	coords := make([]int, len(dims))
	var walk func(d int)
	walk = func(d int) {
		if d == len(dims) {
			if rng.Float64() < density {
				v := rng.Int63n(10000)
				if err := b.Add(coords, v); err != nil {
					t.Fatalf("Add(%v): %v", coords, err)
				}
				ref[coordKey(coords)] = v
			}
			return
		}
		for coords[d] = 0; coords[d] < dims[d]; coords[d]++ {
			walk(d + 1)
		}
	}
	walk(0)
	s, err := b.Write(bp)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	return s, ref
}

func coordKey(coords []int) string {
	out := make([]byte, 0, len(coords)*3)
	for _, c := range coords {
		out = append(out, byte(c), byte(c>>8), ',')
	}
	return string(out)
}

func TestStoreBuildGetScan(t *testing.T) {
	for _, codecName := range []string{CodecOffset, CodecDense, CodecLZW} {
		t.Run(codecName, func(t *testing.T) {
			bp := newStorePool(256)
			g := mustGeometry(t, []int{9, 11, 8}, []int{4, 5, 3})
			codec, _ := CodecByName(codecName)
			s, ref := buildRandomStore(t, bp, g, codec, 0.15, 42)

			if s.NumValidCells() != int64(len(ref)) {
				t.Fatalf("NumValidCells = %d, want %d", s.NumValidCells(), len(ref))
			}
			if s.CodecName() != codecName {
				t.Fatalf("CodecName = %q", s.CodecName())
			}

			// Point reads across the full cube.
			coords := make([]int, 3)
			for i := 0; i < 9; i++ {
				for j := 0; j < 11; j++ {
					for k := 0; k < 8; k++ {
						coords[0], coords[1], coords[2] = i, j, k
						v, ok, err := plain(s).Get(coords)
						if err != nil {
							t.Fatalf("Get(%v): %v", coords, err)
						}
						want, valid := ref[coordKey(coords)]
						if ok != valid || (ok && v != want) {
							t.Fatalf("Get(%v) = (%d, %v), want (%d, %v)", coords, v, ok, want, valid)
						}
					}
				}
			}

			// Reading every chunk recovers every cell exactly once.
			seen := int64(0)
			dst := make([]int, 3)
			for cn, cells := range readAll(t, plain(s)) {
				for _, c := range cells {
					s.geom.Decompose(cn, int(c.Offset), dst)
					want, valid := ref[coordKey(dst)]
					if !valid || want != c.Value {
						t.Fatalf("scan cell chunk=%d off=%d coords=%v value=%d", cn, c.Offset, dst, c.Value)
					}
					seen++
				}
			}
			if seen != int64(len(ref)) {
				t.Fatalf("scan saw %d cells, want %d", seen, len(ref))
			}
			if bp.PinnedPages() != 0 {
				t.Fatalf("%d pages still pinned", bp.PinnedPages())
			}
		})
	}
}

func TestStoreReopen(t *testing.T) {
	bp := newStorePool(256)
	g := mustGeometry(t, []int{10, 10}, []int{3, 4})
	s, ref := buildRandomStore(t, bp, g, OffsetCodec{}, 0.3, 7)

	s2, err := Open(bp, s.Meta())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !s2.Geometry().Equal(g) || s2.NumValidCells() != s.NumValidCells() {
		t.Fatal("reopened store metadata mismatch")
	}
	if s2.SizeBytes() != s.SizeBytes() {
		t.Fatalf("SizeBytes %d vs %d across reopen", s2.SizeBytes(), s.SizeBytes())
	}
	coords := []int{0, 0}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			coords[0], coords[1] = i, j
			v, ok, err := plain(s2).Get(coords)
			if err != nil {
				t.Fatal(err)
			}
			want, valid := ref[coordKey(coords)]
			if ok != valid || (ok && v != want) {
				t.Fatalf("reopened Get(%v) = (%d, %v)", coords, v, ok)
			}
		}
	}
}

func TestStoreEmptyChunksSkipped(t *testing.T) {
	bp := newStorePool(64)
	g := mustGeometry(t, []int{10}, []int{2}) // 5 chunks
	b := NewBuilder(g, OffsetCodec{})
	// Only chunk 2 (cells 4,5) populated.
	if err := b.Add([]int{4}, 44); err != nil {
		t.Fatal(err)
	}
	s, err := b.Write(bp)
	if err != nil {
		t.Fatal(err)
	}
	for cn, cells := range readAll(t, plain(s)) {
		if cn == 2 && (len(cells) != 1 || cells[0].Value != 44) || cn != 2 && len(cells) != 0 {
			t.Fatalf("chunk %d read %d cells", cn, len(cells))
		}
	}
	cells, err := plain(s).ReadChunk(0)
	if err != nil || cells != nil {
		t.Fatalf("ReadChunk(empty) = (%v, %v)", cells, err)
	}
	if plain(s).ChunkCells(2) != 1 || plain(s).ChunkCells(0) != 0 {
		t.Fatal("ChunkCells wrong")
	}
}

func TestStoreDuplicateCellRejected(t *testing.T) {
	bp := newStorePool(64)
	g := mustGeometry(t, []int{4}, []int{2})
	b := NewBuilder(g, OffsetCodec{})
	b.Add([]int{1}, 1)
	b.Add([]int{1}, 2)
	if _, err := b.Write(bp); err == nil {
		t.Fatal("Write with duplicate cell succeeded")
	}
}

func TestStoreBuilderValidation(t *testing.T) {
	g := mustGeometry(t, []int{7}, []int{3})
	b := NewBuilder(g, OffsetCodec{})
	if err := b.Add([]int{7}, 1); err == nil {
		t.Fatal("Add out of bounds succeeded")
	}
	if err := b.AddAt(3, 0, 1); err == nil {
		t.Fatal("AddAt with bad chunk succeeded")
	}
	if err := b.AddAt(2, 1, 1); err == nil {
		t.Fatal("AddAt with out-of-bounds offset in partial chunk succeeded")
	}
	if err := b.AddAt(2, 0, 9); err != nil {
		t.Fatalf("AddAt valid: %v", err)
	}
	if b.NumCells() != 1 {
		t.Fatalf("NumCells = %d", b.NumCells())
	}
}

// TestReadersDoNotShareScratch: two readers of one store, each with its
// own arena, decode into their own scratch — cells one returned stay
// intact while the other reads a different chunk.
func TestReadersDoNotShareScratch(t *testing.T) {
	bp := newStorePool(256)
	g := mustGeometry(t, []int{10, 10}, []int{5, 5})
	s, _ := buildRandomStore(t, bp, g, DiffSeqCodec{}, 0.5, 3)
	want := readAll(t, plain(s))
	r1, r2 := s.Reader(View{}, arena.New()), s.Reader(View{}, arena.New())
	first, err := r1.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	for cn := 1; cn < g.NumChunks(); cn++ {
		cells, err := r2.ReadChunk(cn)
		if err != nil {
			t.Fatal(err)
		}
		if !cellsEqual(cells, want[cn]) {
			t.Fatalf("second reader, chunk %d: %v, want %v", cn, cells, want[cn])
		}
	}
	if !cellsEqual(first, want[0]) {
		t.Fatalf("first reader's chunk 0 changed under the second reader's reads: %v, want %v", first, want[0])
	}
}

func TestStoreCompressionSizesOrdering(t *testing.T) {
	// At low density the chunk-offset store must be far smaller than the
	// dense store (§3.2-3.3).
	g := mustGeometry(t, []int{30, 30, 30}, []int{10, 10, 10})
	var sizes = map[string]int64{}
	for _, name := range []string{CodecOffset, CodecDense} {
		bp := newStorePool(4096)
		codec, _ := CodecByName(name)
		s, _ := buildRandomStore(t, bp, g, codec, 0.02, 11)
		sizes[name] = s.EncodedBytes()
	}
	if sizes[CodecOffset]*5 > sizes[CodecDense] {
		t.Fatalf("2%% density: offset=%dB dense=%dB, want >5x win", sizes[CodecOffset], sizes[CodecDense])
	}
}

func TestStoreGetInvalidCoords(t *testing.T) {
	bp := newStorePool(64)
	g := mustGeometry(t, []int{4}, []int{2})
	s, _ := buildRandomStore(t, bp, g, OffsetCodec{}, 1, 1)
	if _, _, err := plain(s).Get([]int{4}); err == nil {
		t.Fatal("Get out of bounds succeeded")
	}
	if _, err := plain(s).ReadChunk(99); err == nil {
		t.Fatal("ReadChunk out of range succeeded")
	}
}
