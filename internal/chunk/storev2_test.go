package chunk

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/storage"
)

// buildMixedStore writes an adaptive store whose chunk 0 is
// scattered-sparse (chunk-offset territory) and chunk 1 is a dense run
// (diff-seq territory). Capacity 400 keeps difference entries at 2
// bytes, so a scattered cell costs more under diff-seq than under the
// 12-byte offset pairs.
func buildMixedStore(t *testing.T, bp *storage.BufferPool) (*Store, *Geometry) {
	t.Helper()
	g, err := NewGeometry([]int{40, 20}, []int{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(g, nil)
	for i := 0; i < 8; i++ {
		if err := b.AddAt(0, i*50, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for off := 0; off < 360; off++ {
		if err := b.AddAt(1, off, int64(off)*3); err != nil {
			t.Fatal(err)
		}
	}
	s, err := b.Write(bp)
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

func readAll(t *testing.T, r *Reader) map[int][]Cell {
	t.Helper()
	out := map[int][]Cell{}
	for cn := 0; cn < r.s.Geometry().NumChunks(); cn++ {
		cells, err := r.ReadChunk(cn)
		if err != nil {
			t.Fatal(err)
		}
		out[cn] = append([]Cell(nil), cells...)
	}
	return out
}

func TestAdaptiveStoreRoundtrip(t *testing.T) {
	bp := newStorePool(256)
	s, _ := buildMixedStore(t, bp)

	if !s.Adaptive() || s.CodecName() != CodecAdaptive {
		t.Fatalf("Adaptive=%v CodecName=%q", s.Adaptive(), s.CodecName())
	}
	if got := s.ChunkCodecName(0); got != CodecOffset {
		t.Fatalf("sparse chunk tagged %q, want %q", got, CodecOffset)
	}
	if got := s.ChunkCodecName(1); got != CodecDiffSeq {
		t.Fatalf("dense chunk tagged %q, want %q", got, CodecDiffSeq)
	}

	want := readAll(t, plain(s))
	ro, err := Open(bp, s.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if !ro.Adaptive() {
		t.Fatal("reopened store is not adaptive")
	}
	for cn, cells := range readAll(t, plain(ro)) {
		if !cellsEqual(cells, want[cn]) {
			t.Fatalf("chunk %d diverges after reopen", cn)
		}
		if ro.ChunkCodecName(cn) != s.ChunkCodecName(cn) {
			t.Fatalf("chunk %d tag %q != %q", cn, ro.ChunkCodecName(cn), s.ChunkCodecName(cn))
		}
	}

	// The per-codec breakdown must cover every non-empty chunk and sum
	// to the store's encoded payload.
	stats := ro.CodecStats()
	var chunks, bytes int64
	for _, st := range stats {
		chunks += st.Chunks
		bytes += st.EncodedBytes
	}
	if chunks != 2 || bytes != ro.EncodedBytes() {
		t.Fatalf("CodecStats sums to %d chunks / %d bytes (want 2 / %d): %v",
			chunks, bytes, ro.EncodedBytes(), stats)
	}
	if stats[CodecOffset].Chunks != 1 || stats[CodecDiffSeq].Chunks != 1 {
		t.Fatalf("CodecStats mix = %v", stats)
	}
}

// v1Directory is a store directory in the unversioned v1 layout —
// geometry, one store-wide codec name, totals, untagged entries — as the
// last build that wrote one rendered a 24x10 chunk-offset store. Frozen:
// nothing can produce it any more.
const v1Directory = "\x02\x18\b\n\n\fchunk-offset\bQ\x01\x94\x02\x17\x03\xe8\x02\x1e\x05\xd0\x02\x1c"

// A v1 directory is refused with ErrDirFormatV1 — by the parser, and,
// wrapped, by Open reading it through a buffer pool, which is the form
// exec.OpenArray and so an array-engine query surfaces. Never a Store.
func TestV1StoreRejected(t *testing.T) {
	if d, err := unmarshalStoreDir([]byte(v1Directory)); !errors.Is(err, ErrDirFormatV1) || d != nil {
		t.Fatalf("unmarshalStoreDir(v1) = %v, %v; want ErrDirFormatV1", d, err)
	}
	bp := newStorePool(16)
	ref, _, err := storage.NewLOBStore(bp).Write([]byte(v1Directory))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(bp, ref)
	if !errors.Is(err, ErrDirFormatV1) || s != nil {
		t.Fatalf("Open(v1) = %v, %v; want an error wrapping ErrDirFormatV1", s, err)
	}
	if err == ErrDirFormatV1 || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("Open(v1) error %q: want the blob located and the format named", err)
	}
}

// Copy-on-write updates of an adaptive store must re-pick the codec of
// chunks whose density shifted.
func TestUpdateRecodesAdaptiveChunks(t *testing.T) {
	bp := newStorePool(256)
	s, _ := buildMixedStore(t, bp)
	if got := s.ChunkCodecName(0); got != CodecOffset {
		t.Fatalf("precondition: sparse chunk tagged %q", got)
	}

	// Drive chunk 0 dense: fill offsets 0..299.
	fill := make([]OverlayCell, 0, 300)
	for off := 0; off < 300; off++ {
		fill = append(fill, OverlayCell{Offset: uint32(off), Value: int64(off)})
	}
	upd, err := s.Update(map[int][]OverlayCell{0: fill})
	if err != nil {
		t.Fatal(err)
	}
	if got := upd.ChunkCodecName(0); got != CodecDiffSeq {
		t.Fatalf("densified chunk tagged %q, want %q", got, CodecDiffSeq)
	}

	// Delete most of it again: the re-pick must flip back to offset.
	del := make([]OverlayCell, 0, 296)
	for off := 0; off < 300; off++ {
		if off%50 != 0 {
			del = append(del, OverlayCell{Offset: uint32(off), Delete: true})
		}
	}
	back, err := upd.Update(map[int][]OverlayCell{0: del})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.ChunkCodecName(0); got != CodecOffset {
		t.Fatalf("sparsified chunk tagged %q, want %q", got, CodecOffset)
	}

	// Under the new tag, contents must match a reference replay: the 8
	// original cells sat at offsets {0, 50, ..., 350}; fill overwrites
	// the six below 300, leaving the survivors at 300 and 350.
	cells, err := plain(upd).ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]int64{300: 6, 350: 7}
	for off := 0; off < 300; off++ {
		want[uint32(off)] = int64(off)
	}
	if len(cells) != len(want) {
		t.Fatalf("merged chunk has %d cells, want %d", len(cells), len(want))
	}
	for _, c := range cells {
		if want[c.Offset] != c.Value {
			t.Fatalf("offset %d = %d, want %d", c.Offset, c.Value, want[c.Offset])
		}
	}
}
