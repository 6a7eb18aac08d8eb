package chunk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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

// scanRoutes scans s with both callbacks and returns every chunk's cells
// as they arrived, and the chunks that arrived as pairs.
func scanRoutes(ctx context.Context, s *Store) (map[int][]Cell, map[int]bool, error) {
	got, framed := map[int][]Cell{}, map[int]bool{}
	err := s.ScanChunkRange(ctx, 0, len(s.entries),
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
	enc, err := s.lob.Read(s.entries[cn].ref)
	if err != nil {
		t.Fatal(err)
	}
	enc = mutate(enc)
	ref, _, err := s.lob.Write(enc)
	if err != nil {
		t.Fatal(err)
	}
	s.entries[cn].ref, s.entries[cn].bytes = ref, uint64(len(enc))
}

// TestScanRoutes: a scan with a pairs callback reads exactly the
// chunk-offset chunks in place — no overlay, not cached — and hands
// every other chunk over decoded, with the same cells ReadChunk returns.
// It holds in a pool too small for a run of pages, and leaves nothing
// pinned.
func TestScanRoutes(t *testing.T) {
	for _, frames := range []int{256, 2} {
		bp := newStorePool(256)
		mixed, _ := buildMixedStore(t, bp)
		paged := buildPagedStore(t, bp)
		small := storage.NewBufferPool(bp.Disk(), frames)
		if err := bp.FlushAll(); err != nil {
			t.Fatal(err)
		}
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
	bp := newStorePool(256)
	s, _ := buildMixedStore(t, bp)
	s.SetOverlay(map[int][]OverlayCell{0: {{Offset: 1, Value: 5}}})
	if _, framed, err := scanRoutes(context.Background(), s); err != nil || framed[0] {
		t.Fatalf("overlay chunk read in place (%v)", err)
	}
	s.SetOverlay(nil)
	s.SetDecodedCache(oneChunkCache{0: {{Offset: 3, Value: 9}}})
	got, framed, err := scanRoutes(context.Background(), s)
	if err != nil || framed[0] || !cellsEqual(got[0], []Cell{{Offset: 3, Value: 9}}) {
		t.Fatalf("cached chunk: read in place %v, cells %v (%v)", framed[0], got[0], err)
	}
}

// oneChunkCache is a DecodedCache that holds fixed chunks.
type oneChunkCache map[int][]Cell

func (c oneChunkCache) GetDecoded(cn int) ([]Cell, bool) { cells, ok := c[cn]; return cells, ok }
func (c oneChunkCache) PutDecoded(int, []Cell)           {}

// TestScanPairsFailures: every way a chunk read in place can fail is an
// error, never wrong cells, and leaves nothing pinned — a consumer error,
// a cancel between chunks, and each check decodeOffsetPairs and the
// scratch read make: order, capacity, whole pairs, and the directory's
// cell count.
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
			err := s.ScanChunkRange(ctx, 0, len(s.entries), func(int, []Cell) error { return nil }, pairs)
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
// must accept exactly what OffsetCodec.DecodeAlloc accepts, and hand over
// exactly its cells in order, so any fold of the pairs is the fold of the
// cells.
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
		want, wantErr := OffsetCodec{}.DecodeAlloc(data, capacity, nil)

		var carry [offsetPairSize]byte
		w := pairWalk{cn: 3, capacity: capacity, prev: -1, carry: &carry}
		var got []Cell
		collect := func(cn int, p OffsetPairs) error {
			if cn != 3 || len(p) == 0 || len(p)%offsetPairSize != 0 {
				t.Fatalf("a run of %d bytes for chunk %d", len(p), cn)
			}
			got = appendPairs(got, p)
			return nil
		}
		// Pages alternate between two sizes, so boundaries fall anywhere.
		var err error
		for i, b := 0, data; len(b) > 0 && err == nil; i++ {
			n := min(len(b), page+i%2*(page%offsetPairSize+1))
			err, b = w.page(b[:n], collect), b[n:]
		}
		if err == nil && w.held > 0 {
			err = errors.New("a partial pair")
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("walk err %v, DecodeAlloc err %v", err, wantErr)
		}
		if err == nil && !cellsEqual(got, want) {
			t.Fatalf("walk handed %d cells, DecodeAlloc decoded %d", len(got), len(want))
		}
		// Whatever went out before an error was a valid prefix.
		for i, c := range got {
			if int(c.Offset) >= capacity || i > 0 && got[i-1].Offset >= c.Offset {
				t.Fatalf("pair %d (offset %d) handed over unchecked", i, c.Offset)
			}
		}
	})
}
