package chunk

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// fuzzSeedStores builds one adaptive and two forced-codec stores and
// returns their marshaled directories, so the fuzzer starts from valid
// blobs of every codec mode it must parse.
func fuzzSeedStores(f *testing.F) [][]byte {
	f.Helper()
	bp := newStorePool(256)
	g, err := NewGeometry([]int{40, 20}, []int{20, 20})
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, codec := range []Codec{nil, OffsetCodec{}, DenseCodec{}} {
		b := NewBuilder(g, codec)
		for i := 0; i < 8; i++ {
			if err := b.AddAt(0, i*50, int64(i)); err != nil {
				f.Fatal(err)
			}
		}
		for off := 0; off < 360; off++ {
			if err := b.AddAt(1, off, int64(off)); err != nil {
				f.Fatal(err)
			}
		}
		s, err := b.Write(bp)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, s.marshalMeta())
	}
	return seeds
}

// FuzzStoreDir throws arbitrary bytes at the store-directory parser. It
// must never panic, an error must come with no directory (the v1 seed
// takes that path: see TestV1StoreRejected), and anything it accepts must
// be internally consistent: a geometry, one entry per chunk, and codec
// tags that resolve in the codec table.
func FuzzStoreDir(f *testing.F) {
	seeds := fuzzSeedStores(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Add(seeds[0][:len(seeds[0])/2]) // a directory cut off mid-way
	f.Add([]byte(v1Directory))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 2})
	f.Add([]byte{0, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := unmarshalStoreDir(data)
		if err != nil {
			if d != nil {
				t.Fatalf("a directory came back beside the error %v", err)
			}
			return
		}
		if d.geom == nil {
			t.Fatal("accepted directory with nil geometry")
		}
		if len(d.entries) != d.geom.NumChunks() {
			t.Fatalf("%d entries for %d chunks", len(d.entries), d.geom.NumChunks())
		}
		for i, e := range d.entries {
			if int(e.codec) >= len(codecTable) {
				t.Fatalf("entry %d tagged with unknown codec %d", i, e.codec)
			}
		}
	})
}

// FuzzCodecDecode feeds arbitrary payloads to every codec's decoder
// (selected by the first input byte). Decoders must never panic and must
// bound their allocations by the declared capacity; whatever they accept
// must survive an encode/decode round trip unchanged.
func FuzzCodecDecode(f *testing.F) {
	codecs := allCodecs()
	rng := rand.New(rand.NewSource(71))
	for sel := range codecs {
		for _, density := range []float64{0.02, 0.5, 1.0} {
			const capacity = 600
			cells := randomCells(rng, capacity, density)
			enc, err := codecs[sel].Encode(cells, capacity)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(sel), uint16(capacity), enc)
		}
	}
	f.Add(uint8(0), uint16(0), []byte{})
	f.Add(uint8(3), uint16(100), []byte{200})
	f.Fuzz(func(t *testing.T, sel uint8, capRaw uint16, data []byte) {
		codec := codecs[int(sel)%len(codecs)]
		capacity := int(capRaw)%4096 + 1
		cells, err := codec.Decode(data, capacity, nil)
		if err != nil {
			return
		}
		// Accepted payloads must describe a valid chunk: sorted unique
		// offsets inside the capacity.
		for i, c := range cells {
			if int(c.Offset) >= capacity {
				t.Fatalf("%s: decoded offset %d >= capacity %d", codec.Name(), c.Offset, capacity)
			}
			if i > 0 && cells[i-1].Offset >= c.Offset {
				t.Fatalf("%s: decoded offsets not strictly sorted at %d", codec.Name(), i)
			}
		}
		// The arena path must agree with the heap path byte for byte.
		viaAlloc, err := codec.Decode(data, capacity, func(n int) []Cell { return make([]Cell, n) })
		if err != nil || !cellsEqual(viaAlloc, cells) {
			t.Fatalf("%s: decode through an allocator diverges from the heap decode: %v", codec.Name(), err)
		}
		// Round trip: re-encoding what was accepted reproduces it.
		enc, err := codec.Encode(cells, capacity)
		if err != nil {
			t.Fatalf("%s: re-encode of accepted cells failed: %v", codec.Name(), err)
		}
		again, err := codec.Decode(enc, capacity, nil)
		if err != nil || !cellsEqual(again, cells) {
			t.Fatalf("%s: round trip after accept diverges: %v", codec.Name(), err)
		}
	})
}

// Guard against the sentinel colliding with a v1 blob, which starts with
// its geometry: geometry marshaling must never start with a zero
// dimension count.
func TestV1BlobNeverStartsWithZero(t *testing.T) {
	g, err := NewGeometry([]int{3}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := binary.Uvarint(g.Marshal())
	if first == 0 {
		t.Fatal("geometry blob starts with 0; v2 sentinel is ambiguous")
	}
}

// FuzzStoreUpdate holds compaction to merge-on-read: an overlay folded
// into a store by Update reads back, chunk for chunk, as ReadChunk reads
// the old store with the overlay attached, and the old store is
// unchanged. The base is a forced chunk-offset or diff-seq store, or an
// adaptive one; the overlay sets, overwrites and deletes present and
// absent cells. Unless raw, each chunk's overlay is first sorted, its
// repeated offsets collapsed to the last write and its invalid offsets
// dropped. An overlay that is unsorted, repeats an offset, or names an
// offset at or past the capacity or past a partial edge chunk's extent
// is rejected before a page is written.
func FuzzStoreUpdate(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), false, []byte{0, 1, 1, 0, 5, 0, 5, 3, 2, 4, 0, 9})
	f.Add(int64(2), uint8(1), uint8(90), false, []byte{1, 0, 1, 1, 1, 0, 1, 2, 7, 1, 15, 4})
	f.Add(int64(3), uint8(2), uint8(60), false, []byte{2, 7, 0, 3, 3, 3, 2, 7, 5})
	f.Add(int64(4), uint8(2), uint8(60), true, []byte{0, 5, 1, 0, 2, 1})                            // unsorted
	f.Add(int64(9), uint8(0), uint8(40), true, []byte{0, 1, 1, 1, 1, 1, 4, 1, 1, 2, 5, 1, 2, 2, 1}) // chunk 2 unsorted beside valid chunks
	f.Add(int64(5), uint8(0), uint8(50), true, []byte{0, 3, 1, 0, 3, 2})                            // a repeated offset
	f.Add(int64(6), uint8(1), uint8(50), true, []byte{0, 16, 1})                                    // an offset at capacity
	f.Add(int64(7), uint8(0), uint8(50), true, []byte{5, 2, 1})                                     // past edge chunk 5's extent
	f.Add(int64(8), uint8(1), uint8(30), true, []byte{0, 1, 1, 0, 2, 0})                            // valid as it comes
	f.Fuzz(func(t *testing.T, seed int64, codecSel, density uint8, raw bool, ops []byte) {
		// 9x6 in 4x4 chunks: 3x2 chunks of capacity 16, the last row and
		// column of them partial.
		g, err := NewGeometry([]int{9, 6}, []int{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		valid := func(cn int, off uint32) bool { return int(off) < g.ChunkCapacity() && g.ValidOffset(cn, int(off)) }
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(g, []Codec{OffsetCodec{}, DiffSeqCodec{}, nil}[int(codecSel)%3])
		for cn := 0; cn < g.NumChunks(); cn++ {
			for off := 0; off < g.ChunkCapacity(); off++ {
				if valid(cn, uint32(off)) && rng.Intn(100) < int(density)%101 {
					if err := b.AddAt(cn, off, rng.Int63n(1000)-500); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		bp := newStorePool(64)
		base, err := b.Write(bp)
		if err != nil {
			t.Fatal(err)
		}

		ov := map[int][]OverlayCell{}
		for ; len(ops) >= 3; ops = ops[3:] {
			cn := int(ops[0]) % g.NumChunks()
			ov[cn] = append(ov[cn], OverlayCell{Offset: uint32(ops[1]) % 20, Value: int64(int8(ops[2])), Delete: ops[2]%4 == 0})
		}
		if !raw {
			for cn, cells := range ov {
				slices.SortStableFunc(cells, func(x, y OverlayCell) int { return cmp.Compare(x.Offset, y.Offset) })
				var kept []OverlayCell
				for i, c := range cells {
					if valid(cn, c.Offset) && (i+1 == len(cells) || cells[i+1].Offset != c.Offset) {
						kept = append(kept, c)
					}
				}
				ov[cn] = kept
			}
		}
		ok := true
		for cn, cells := range ov {
			for i, c := range cells {
				ok = ok && valid(cn, c.Offset) && (i == 0 || cells[i-1].Offset < c.Offset)
			}
		}

		before := readAll(t, base)
		pages := bp.Disk().NumPages()
		upd, err := base.Update(ov)
		if !ok {
			if err == nil {
				t.Fatalf("Update accepted an invalid overlay %v", ov)
			}
			if n := bp.Disk().NumPages(); n != pages {
				t.Fatalf("a rejected Update wrote %d pages", n-pages)
			}
			return
		}
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		merged := base.Clone()
		merged.SetOverlay(ov)
		want, got := readAll(t, merged), readAll(t, upd)
		var n int64
		for cn, cells := range want {
			if !cellsEqual(got[cn], cells) {
				t.Fatalf("chunk %d: Update wrote %v, merge-on-read reads %v", cn, got[cn], cells)
			}
			n += int64(len(cells))
		}
		if upd.NumValidCells() != n {
			t.Fatalf("Update counts %d cells, the chunks hold %d", upd.NumValidCells(), n)
		}
		for cn, cells := range readAll(t, base) {
			if !cellsEqual(cells, before[cn]) {
				t.Fatalf("chunk %d of the old store changed", cn)
			}
		}
	})
}
