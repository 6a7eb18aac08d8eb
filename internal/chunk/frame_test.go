package chunk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// appendPairs appends a run of pairs to cells.
func appendPairs(cells []Cell, p OffsetPairs) []Cell {
	for len(p) > 0 {
		off, v, rest := p.Next()
		cells = append(cells, Cell{Offset: off, Value: v})
		p = rest
	}
	return cells
}

// visitAll reads every chunk of s through VisitChunk, in chunk order,
// checking ctx before each, as a query's scan does.
func visitAll(ctx context.Context, s *Store, cells func(int, []Cell) error, pairs func(int, OffsetPairs) error) error {
	for cn := range s.entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.VisitChunk(cn, cells, pairs); err != nil {
			return err
		}
	}
	return nil
}

// scanRoutes reads every chunk of s through VisitChunk and returns every
// chunk's cells as they arrived, and the chunks that arrived as pairs.
func scanRoutes(ctx context.Context, s *Store) (map[int][]Cell, map[int]bool, error) {
	got, framed := map[int][]Cell{}, map[int]bool{}
	err := visitAll(ctx, s,
		func(cn int, cells []Cell) error {
			got[cn] = append([]Cell(nil), cells...)
			return nil
		},
		func(cn int, p OffsetPairs) error {
			got[cn], framed[cn] = appendPairs(got[cn], p), true
			return nil
		})
	return got, framed, err
}

// buildPagedStore writes a chunk-offset store whose chunks span several
// pages, so pairs straddle page boundaries.
func buildPagedStore(t testing.TB, bp *storage.BufferPool) *Store {
	t.Helper()
	g, err := NewGeometry([]int{70, 50}, []int{40, 40})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	b := NewBuilder(g, OffsetCodec{})
	for i := 0; i < 70; i++ {
		for j := 0; j < 50; j++ {
			if rng.Intn(10) < 9 {
				if err := b.Add([]int{i, j}, rng.Int63n(1<<40)-1<<39); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	s, err := b.Write(bp)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corruptChunk rewrites chunk cn's blob as mutate leaves its encoded
// bytes, keeping the directory entry's cell count.
func corruptChunk(t testing.TB, s *Store, cn int, mutate func(enc []byte) []byte) {
	t.Helper()
	enc, err := s.lob.ReadExtent(s.entries[cn].ref, int(s.entries[cn].bytes), nil)
	if err != nil {
		t.Fatal(err)
	}
	enc = mutate(enc)
	ref, _, err := s.lob.WriteExtent(enc)
	if err != nil {
		t.Fatal(err)
	}
	s.entries[cn].ref, s.entries[cn].bytes = ref, uint64(len(enc))
}

// TestColdChunkReadsOwnPages: from a dropped pool, reading a chunk
// costs exactly the ⌈bytes/PageSize⌉ pages of its extent and no page
// more, whichever codec wrote it and whichever way it is read; and a
// store's footprint is exactly the pages its build added to the volume.
func TestColdChunkReadsOwnPages(t *testing.T) {
	bp := newStorePool(64)
	g, err := NewGeometry([]int{120, 120}, []int{60, 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range []Codec{OffsetCodec{}, DiffSeqCodec{}, DenseCodec{}} {
		grew := bp.Disk().NumPages()
		s, _ := buildRandomStore(t, bp, g, codec, 0.5, 3)
		grew = bp.Disk().NumPages() - grew
		if got := s.SizeBytes(); got != int64(grew)*storage.PageSize {
			t.Errorf("%s: SizeBytes = %d, the build added %d pages", codec.Name(), got, grew)
		}
		reads := map[string]func(cn int) error{
			"ReadChunk": func(cn int) error { _, err := s.ReadChunk(cn); return err },
			"VisitChunk": func(cn int) error {
				return s.VisitChunk(cn, func(int, []Cell) error { return nil },
					func(int, OffsetPairs) error { return nil })
			},
		}
		for cn, e := range s.entries {
			want := (e.bytes + storage.PageSize - 1) / storage.PageSize
			if want < 2 {
				t.Fatalf("%s chunk %d: %d bytes, want a chunk of several pages", codec.Name(), cn, e.bytes)
			}
			for name, read := range reads {
				if err := bp.DropAll(); err != nil {
					t.Fatal(err)
				}
				before := bp.Stats()
				if err := read(cn); err != nil {
					t.Fatalf("%s chunk %d: %s: %v", codec.Name(), cn, name, err)
				}
				if got := bp.Stats().Sub(before).PhysicalReads; got != want {
					t.Errorf("%s chunk %d (%d bytes): cold %s read %d pages, want %d",
						codec.Name(), cn, e.bytes, name, got, want)
				}
			}
		}
	}
}

// TestScanRoutes: a scan of every chunk through VisitChunk reads exactly
// the chunk-offset chunks in place — no overlay, not cached — and hands
// every other chunk over decoded, with the same cells ReadChunk returns.
// It holds in a pool too small for a run of pages, and leaves nothing
// pinned.
func TestScanRoutes(t *testing.T) {
	bp := newStorePool(256)
	mixed, _ := buildMixedStore(t, bp)
	paged := buildPagedStore(t, bp)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, frames := range []int{256, 2} {
		small := storage.NewBufferPool(bp.Disk(), frames)
		for name, s := range map[string]*Store{"mixed": mixed, "paged": paged} {
			want := readAll(t, s)
			s = s.Clone()
			s.bp, s.lob = small, storage.NewLOBStore(small)
			got, framed, err := scanRoutes(context.Background(), s)
			if err != nil {
				t.Fatalf("%s, %d frames: %v", name, frames, err)
			}
			for cn, cells := range want {
				if _, offset := s.entryCodec(cn).(OffsetCodec); framed[cn] != (offset && len(cells) > 0) {
					t.Errorf("%s chunk %d (%s): read in place = %v", name, cn, s.ChunkCodecName(cn), framed[cn])
				}
				if !cellsEqual(got[cn], cells) {
					t.Fatalf("%s, %d frames, chunk %d: scan diverges from ReadChunk", name, frames, cn)
				}
			}
			if n := small.PinnedPages(); n != 0 {
				t.Fatalf("%s, %d frames: %d pages left pinned", name, frames, n)
			}
		}
	}

	// An overlay chunk and a decoded-cache hit keep the decoded route.
	mixed.SetOverlay(map[int][]OverlayCell{0: {{Offset: 1, Value: 5}}})
	if _, framed, err := scanRoutes(context.Background(), mixed); err != nil || framed[0] {
		t.Fatalf("overlay chunk read in place (%v)", err)
	}
	mixed.SetOverlay(nil)
	mixed.SetDecodedCache(oneChunkCache{0: {{Offset: 3, Value: 9}}})
	got, framed, err := scanRoutes(context.Background(), mixed)
	if err != nil || framed[0] || !cellsEqual(got[0], []Cell{{Offset: 3, Value: 9}}) {
		t.Fatalf("cached chunk: read in place %v, cells %v (%v)", framed[0], got[0], err)
	}
}

// TestVisitChunkRoutes: VisitChunk hands exactly the chunk-offset chunks
// — no overlay, not cached — to pairs, read in place, and every other
// chunk to cells as ReadChunk returns it; Get, which reads through it,
// finds every stored cell with its value at every valid coordinate and
// nothing elsewhere, and a corrupt pair on a page the lookup never
// needs is still an error.
func TestVisitChunkRoutes(t *testing.T) {
	bp := newStorePool(256)
	mixed, _ := buildMixedStore(t, bp)
	paged := buildPagedStore(t, bp)
	for name, s := range map[string]*Store{"mixed": mixed, "paged": paged} {
		want := readAll(t, s)
		g := s.Geometry()
		coords := make([]int, g.NumDims())
		for cn := range s.entries {
			var got []Cell
			framed := false
			err := s.VisitChunk(cn, func(_ int, c []Cell) error {
				got = append(got, c...)
				return nil
			}, func(_ int, p OffsetPairs) error {
				got, framed = appendPairs(got, p), true
				return nil
			})
			if err != nil || !cellsEqual(got, want[cn]) {
				t.Fatalf("%s chunk %d: VisitChunk diverges from ReadChunk (%v)", name, cn, err)
			}
			if _, offset := s.entryCodec(cn).(OffsetCodec); framed != (offset && len(got) > 0) {
				t.Errorf("%s chunk %d (%s): read in place = %v", name, cn, s.ChunkCodecName(cn), framed)
			}
			for off := 0; off < g.ChunkCapacity(); off++ {
				if !g.ValidOffset(cn, off) {
					continue
				}
				wv, wok := SearchCells(want[cn], uint32(off))
				v, ok, err := s.Get(g.Decompose(cn, off, coords))
				if err != nil || v != wv || ok != wok {
					t.Fatalf("%s chunk %d offset %d: Get = (%d, %v, %v), want (%d, %v)", name, cn, off, v, ok, err, wv, wok)
				}
			}
		}
		if n := bp.PinnedPages(); n != 0 {
			t.Fatalf("%s: %d pages left pinned", name, n)
		}
	}

	// The last pair of chunk 0 repeats its predecessor's offset: a lookup
	// at the chunk's first offset, settled on its first page, still fails.
	corruptChunk(t, paged, 0, func(enc []byte) []byte {
		n := len(enc) / offsetPairSize
		copy(enc[(n-1)*offsetPairSize:], enc[(n-2)*offsetPairSize:][:4])
		return enc
	})
	if _, _, err := paged.Get([]int{0, 0}); err == nil || !strings.Contains(err.Error(), "not strictly sorted") {
		t.Fatalf("Get on a corrupt chunk: err = %v", err)
	}

	// An overlay chunk and a decoded-cache hit go to cells.
	mixed.SetOverlay(map[int][]OverlayCell{0: {{Offset: 1, Value: 5}}})
	if err := mixed.VisitChunk(0, func(int, []Cell) error { return nil }, func(int, OffsetPairs) error {
		t.Fatal("overlay chunk read in place")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := mixed.Get([]int{0, 1}); err != nil || !ok || v != 5 {
		t.Fatalf("Get of an overlay cell = (%d, %v, %v)", v, ok, err)
	}
	mixed.SetOverlay(nil)
	mixed.SetDecodedCache(oneChunkCache{0: {{Offset: 3, Value: 9}}})
	if v, ok, err := mixed.Get(mixed.Geometry().Decompose(0, 3, make([]int, 2))); err != nil || !ok || v != 9 {
		t.Fatalf("Get of a cached cell = (%d, %v, %v)", v, ok, err)
	}
}

// oneChunkCache is a DecodedCache that holds fixed chunks.
type oneChunkCache map[int][]Cell

func (c oneChunkCache) GetDecoded(cn int) ([]Cell, bool) { cells, ok := c[cn]; return cells, ok }
func (c oneChunkCache) PutDecoded(int, []Cell)           {}

// BenchmarkStoreGet times a warm point read: Store.Get at random
// coordinates of a chunk-offset store whose chunks span pages, every
// page already checked once in its frame.
func BenchmarkStoreGet(b *testing.B) {
	s := buildPagedStore(b, newStorePool(256))
	rng := rand.New(rand.NewSource(5))
	coords := make([][]int, 1024)
	for i := range coords {
		coords[i] = []int{rng.Intn(70), rng.Intn(50)}
		if _, _, err := s.Get(coords[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Get(coords[i%len(coords)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanPairsFailures: every way a chunk read in place can fail is an
// error, never wrong cells, and leaves nothing pinned — a consumer error,
// a cancel between chunks of a VisitChunk loop, and each check
// decodeOffsetPairs and ReadChunk make: order, capacity, whole pairs,
// and the directory's cell count.
func TestScanPairsFailures(t *testing.T) {
	stop := errors.New("consumer stop")
	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *Store)
		pairs   func(ctx context.Context, cancel func()) func(int, OffsetPairs) error
		want    string
	}{
		{"consumer-error", nil, func(context.Context, func()) func(int, OffsetPairs) error {
			return func(int, OffsetPairs) error { return stop }
		}, stop.Error()},
		{"cancel-between-chunks", nil, func(_ context.Context, cancel func()) func(int, OffsetPairs) error {
			return func(int, OffsetPairs) error { cancel(); return nil }
		}, context.Canceled.Error()},
		{"unsorted-mid-page", func(t *testing.T, s *Store) {
			corruptChunk(t, s, 0, func(enc []byte) []byte {
				copy(enc[300*offsetPairSize:], enc[299*offsetPairSize:][:4]) // pair 300 repeats pair 299's offset
				return enc
			})
		}, nil, "not strictly sorted at 300"},
		{"past-capacity", func(t *testing.T, s *Store) {
			corruptChunk(t, s, 0, func(enc []byte) []byte {
				storage.PutUint32(enc, len(enc)-offsetPairSize, 1600)
				return enc
			})
		}, nil, "cell offset 1600 >= capacity 1600"},
		{"partial-pair", func(t *testing.T, s *Store) {
			corruptChunk(t, s, 0, func(enc []byte) []byte { return enc[:len(enc)-5] })
		}, nil, "offset-coded chunk of"},
		{"cell-count", func(t *testing.T, s *Store) { s.entries[0].cells++ }, nil, "directory says"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bp := newStorePool(256)
			s := buildPagedStore(t, bp)
			if c.corrupt != nil {
				c.corrupt(t, s)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pairs := func(int, OffsetPairs) error { return nil }
			if c.pairs != nil {
				pairs = c.pairs(ctx, cancel)
			}
			err := visitAll(ctx, s, func(int, []Cell) error { return nil }, pairs)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			if n := bp.PinnedPages(); n != 0 {
				t.Fatalf("%d pages left pinned", n)
			}
		})
	}
}

// TestScanPairsConcurrent runs four scans over clones of one store at
// once, in a pool smaller than the store (run it with -race): each sees
// every cell, and nothing is left pinned.
func TestScanPairsConcurrent(t *testing.T) {
	bp := newStorePool(256)
	s := buildPagedStore(t, bp)
	want := readAll(t, s)
	small := storage.NewBufferPool(bp.Disk(), 24)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Clone()
			c.bp, c.lob = small, storage.NewLOBStore(small)
			for i := 0; i < 10; i++ {
				got, _, err := scanRoutes(context.Background(), c)
				for cn, cells := range want {
					if err == nil && !cellsEqual(got[cn], cells) {
						err = fmt.Errorf("chunk %d diverges", cn)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := small.PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// FuzzOffsetPairWalk splits arbitrary bytes into pages of arbitrary size
// — the seeds put a pair across a page boundary at every one of its 11
// inner positions — and walks them as a chunk read in place. The walk
// must accept exactly what OffsetCodec.Decode accepts, and hand over
// exactly its cells in order, so any fold of the pairs is the fold of the
// cells. The seek must agree too: over random ascending offset ranges,
// PairSeek keeps exactly the cells Decode + LowerBound find, and the
// point search Store.Get runs on a chunk read in place finds exactly what
// SearchCells finds. Whatever Decode rejects is an error on both,
// even where no range reaches the bad pair.
func FuzzOffsetPairWalk(f *testing.F) {
	rng := rand.New(rand.NewSource(81))
	const capacity = 600
	enc, err := OffsetCodec{}.Encode(randomCells(rng, capacity, 0.3), capacity)
	if err != nil {
		f.Fatal(err)
	}
	for straddle := 1; straddle < offsetPairSize; straddle++ {
		f.Add(uint16(capacity), uint16(7*offsetPairSize+straddle), enc)
	}
	f.Add(uint16(capacity), uint16(storage.PageSize), enc)
	f.Add(uint16(capacity), uint16(5), enc[:len(enc)-5])
	unsorted := append([]byte(nil), enc...)
	copy(unsorted[9*offsetPairSize:], unsorted[8*offsetPairSize:][:4])
	f.Add(uint16(capacity), uint16(17), unsorted)
	f.Add(uint16(capacity), uint16(5*offsetPairSize), unsorted) // the bad pair inside a page
	f.Add(uint16(10), uint16(12), enc)
	// The headers of the two blob-directory crashers — 5000 entries, a
	// 64 TiB length — as chunk bytes.
	count, length := make([]byte, 2*offsetPairSize), make([]byte, 2*offsetPairSize)
	storage.PutUint32(count, 16, 5000)
	storage.PutUint64(length, 8, 1<<46)
	f.Add(uint16(capacity), uint16(13), count)
	f.Add(uint16(capacity), uint16(13), length)
	f.Fuzz(func(t *testing.T, capRaw, pageRaw uint16, data []byte) {
		capacity := int(capRaw)%4096 + 1
		page := int(pageRaw)%storage.PageSize + 1
		want, wantErr := OffsetCodec{}.Decode(data, capacity, nil)

		var got []Cell
		err := walkSplit(t, data, capacity, page, func(cn int, p OffsetPairs) error {
			if cn != 3 || len(p) == 0 || len(p)%offsetPairSize != 0 {
				t.Fatalf("a run of %d bytes for chunk %d", len(p), cn)
			}
			got = appendPairs(got, p)
			return nil
		})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("walk err %v, Decode err %v", err, wantErr)
		}
		if err == nil && !cellsEqual(got, want) {
			t.Fatalf("walk handed %d cells, Decode decoded %d", len(got), len(want))
		}
		// Whatever went out before an error was a valid prefix.
		for i, c := range got {
			if int(c.Offset) >= capacity || i > 0 && got[i-1].Offset >= c.Offset {
				t.Fatalf("pair %d (offset %d) handed over unchecked", i, c.Offset)
			}
		}

		// The seek, over ranges drawn from the input's own numbers.
		rr := rand.New(rand.NewSource(int64(capRaw)<<16 | int64(pageRaw) ^ int64(len(data))))
		var ranges runList
		for lo := uint32(rr.Intn(8)); int(lo) < capacity+8; {
			hi := lo + 1 + uint32(rr.Intn(12))
			ranges = append(ranges, [2]uint32{lo, hi})
			lo = hi + uint32(rr.Intn(30))
		}
		var kept []Cell
		pending := ranges
		seek := NewPairSeek(&pending)
		err = walkSplit(t, data, capacity, page, func(_ int, p OffsetPairs) error {
			for len(p) > 0 {
				var in OffsetPairs
				in, p = seek.Cut(p)
				kept = appendPairs(kept, in)
			}
			return nil
		})
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("seek err %v, Decode err %v", err, wantErr)
		}
		if err == nil {
			var found []Cell
			at := 0
			for _, r := range ranges {
				for at = LowerBound(want, at, r[0]); at < len(want) && want[at].Offset < r[1]; at++ {
					found = append(found, want[at])
				}
			}
			if !cellsEqual(kept, found) {
				t.Fatalf("seek kept %d cells, Decode + LowerBound found %d", len(kept), len(found))
			}
		}

		// The point search, at a few ranges' starts and stored cells.
		offs := []uint32{0, uint32(capacity - 1)}
		for i := 0; i < 8; i++ {
			offs = append(offs, ranges[rr.Intn(len(ranges))][0])
			if len(want) > 0 {
				offs = append(offs, want[rr.Intn(len(want))].Offset)
			}
		}
		for _, off := range offs {
			ps := pointSeek{off: off}
			err := walkSplit(t, data, capacity, page, ps.pairs)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("point search for %d: err %v, Decode err %v", off, err, wantErr)
			}
			if v, ok := SearchCells(want, off); err == nil && (ps.found != ok || ps.value != v) {
				t.Fatalf("point search for %d = (%d, %v), SearchCells = (%d, %v)", off, ps.value, ps.found, v, ok)
			}
		}
	})
}

// walkSplit walks data as chunk 3 read in place, in pages that alternate
// between two sizes so boundaries fall anywhere, with every check
// walkPairs makes but the directory's cell count. Each page has a stamp
// of its own, as a frame does, and data is walked twice: fn sees the
// second walk, which finds the stamps the first walk left. The second
// walk must forward exactly the pairs, and end in exactly the error, of
// the first — a page that failed its check was never stamped.
func walkSplit(t testing.TB, data []byte, capacity, page int, fn func(cn int, p OffsetPairs) error) error {
	t.Helper()
	stamps := make([]atomic.Uint64, len(data)/page+1)
	var first, second []Cell
	err1 := walkStamped(data, capacity, page, stamps, func(_ int, p OffsetPairs) error {
		first = appendPairs(first, p)
		return nil
	})
	err2 := walkStamped(data, capacity, page, stamps, func(cn int, p OffsetPairs) error {
		second = appendPairs(second, p)
		return fn(cn, p)
	})
	if fmt.Sprint(err1) != fmt.Sprint(err2) || !cellsEqual(first, second) {
		t.Fatalf("stamped re-walk forwarded %d cells and %v; the first walk %d cells and %v",
			len(second), err2, len(first), err1)
	}
	return err2
}

// walkStamped is one walk of walkSplit, page i stamped in stamps[i].
func walkStamped(data []byte, capacity, page int, stamps []atomic.Uint64, fn func(cn int, p OffsetPairs) error) error {
	var carry [offsetPairSize]byte
	w := pairWalk{cn: 3, capacity: capacity, prev: -1, carry: &carry}
	for i, b := 0, data; len(b) > 0; i++ {
		n := min(len(b), page+i%2*(page%offsetPairSize+1))
		if err := w.page(b[:n], &stamps[i], fn); err != nil {
			return err
		}
		b = b[n:]
	}
	if w.held > 0 {
		return errors.New("a partial pair")
	}
	return nil
}

// runList is a Runs over fixed ranges.
type runList [][2]uint32

func (r *runList) NextRun() (lo, hi uint32, ok bool) {
	if len(*r) == 0 {
		return 0, 0, false
	}
	lo, hi = (*r)[0][0], (*r)[0][1]
	*r = (*r)[1:]
	return lo, hi, true
}
