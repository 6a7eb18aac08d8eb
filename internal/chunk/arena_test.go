package chunk

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
)

// scratchAllocator mimics the store's warm decode path: one arena slice,
// grown once, reused for every subsequent decode.
func scratchAllocator(a *arena.Arena) CellAllocator {
	var scratch []Cell
	return func(n int) []Cell {
		if cap(scratch) >= n {
			return scratch[:n]
		}
		scratch = arena.Make[Cell](a, n)
		return scratch
	}
}

// TestWarmDecodeZeroAlloc is the allocation gate ci.sh enforces: once the
// arena scratch slice has grown to chunk size, decoding a chunk must not
// touch the GC heap at all. LZW is excluded — and stays excluded even
// after its decode was bounded to the exact dense-image size: the
// compress/lzw reader allocates its decoder state and dictionary on
// every NewReader, and the transient dense image itself must be
// materialized before cells can be counted, so its interim allocations
// are irreducible without reimplementing the decompressor. Offset,
// dense, and diff-seq are the warm-path codecs the gate covers.
func TestWarmDecodeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const capacity = 4096
	cells := randomCells(rng, capacity, 0.35)
	for _, codec := range []Codec{OffsetCodec{}, DenseCodec{}, DiffSeqCodec{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			enc, err := codec.Encode(cells, capacity)
			if err != nil {
				t.Fatal(err)
			}
			alloc := scratchAllocator(arena.New())
			if _, err := codec.Decode(enc, capacity, alloc); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(200, func() {
				if _, err := codec.Decode(enc, capacity, alloc); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("warm %s decode allocates %.1f objects/op, want 0", codec.Name(), avg)
			}
		})
	}
}

// Arena-backed decodes must produce exactly what heap decodes produce.
func TestDecodeAllocMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const capacity = 1000
	for _, codec := range allCodecs() {
		for _, density := range []float64{0, 0.05, 0.5, 1.0} {
			cells := randomCells(rng, capacity, density)
			enc, err := codec.Encode(cells, capacity)
			if err != nil {
				t.Fatal(err)
			}
			a := arena.New()
			got, err := codec.Decode(enc, capacity, func(n int) []Cell {
				return arena.Make[Cell](a, n)
			})
			if err != nil {
				t.Fatalf("%s arena decode: %v", codec.Name(), err)
			}
			if !cellsEqual(got, cells) {
				t.Fatalf("%s arena decode mismatch at density %v", codec.Name(), density)
			}
		}
	}
}

// A store with an arena attached (and no shared decoded cache) serves
// reads through the scratch path; contents must match the heap path and
// the arena must stop growing once the scratch slice covers the largest
// chunk.
func TestStoreArenaScratchPath(t *testing.T) {
	g, err := NewGeometry([]int{12, 12}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	bp := newStorePool(64)
	s, _ := buildRandomStore(t, bp, g, OffsetCodec{}, 0.6, 21)

	heap := map[int][]Cell{}
	for cn := 0; cn < g.NumChunks(); cn++ {
		cells, err := s.ReadChunk(cn)
		if err != nil {
			t.Fatal(err)
		}
		heap[cn] = append([]Cell(nil), cells...)
	}

	a := arena.New()
	s.SetArena(a)
	for pass := 0; pass < 2; pass++ {
		for cn := 0; cn < g.NumChunks(); cn++ {
			cells, err := s.ReadChunk(cn)
			if err != nil {
				t.Fatal(err)
			}
			if !cellsEqual(cells, heap[cn]) {
				t.Fatalf("pass %d chunk %d: arena path diverges from heap path", pass, cn)
			}
		}
	}
	grown := a.InUse()
	for cn := 0; cn < g.NumChunks(); cn++ {
		if _, err := s.ReadChunk(cn); err != nil {
			t.Fatal(err)
		}
	}
	if a.InUse() != grown {
		t.Fatalf("arena grew on warm re-scan: %d -> %d bytes", grown, a.InUse())
	}

	// Detaching the arena restores heap reads.
	s.SetArena(nil)
	for cn := 0; cn < g.NumChunks(); cn++ {
		cells, err := s.ReadChunk(cn)
		if err != nil {
			t.Fatal(err)
		}
		if !cellsEqual(cells, heap[cn]) {
			t.Fatalf("chunk %d: post-detach read diverges", cn)
		}
	}
}

func BenchmarkWarmDecodeArena(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const capacity = 4096
	cells := randomCells(rng, capacity, 0.35)
	for _, codec := range []Codec{OffsetCodec{}, DenseCodec{}, DiffSeqCodec{}} {
		b.Run(codec.Name(), func(b *testing.B) {
			enc, err := codec.Encode(cells, capacity)
			if err != nil {
				b.Fatal(err)
			}
			alloc := scratchAllocator(arena.New())
			if _, err := codec.Decode(enc, capacity, alloc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decode(enc, capacity, alloc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
