package repro

import (
	"maps"
	"testing"
)

func TestArrayADTFunctions(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	// ArrayGet: cell (0,0,0) exists in loadRetail ((p+s+t)%4==0) with
	// measure p*100+s*10+t = 0.
	v, ok, err := db.ArrayGet([]int64{0, 0, 0})
	if err != nil || !ok || v != 0 {
		t.Fatalf("ArrayGet(0,0,0) = (%d, %v, %v)", v, ok, err)
	}
	v, ok, err = db.ArrayGet([]int64{4, 0, 0})
	if err != nil || !ok || v != 400 {
		t.Fatalf("ArrayGet(4,0,0) = (%d, %v, %v)", v, ok, err)
	}
	// Invalid cell ((1,0,0): 1%4 != 0).
	if _, ok, err := db.ArrayGet([]int64{1, 0, 0}); err != nil || ok {
		t.Fatalf("ArrayGet(invalid) = (%v, %v)", ok, err)
	}
	// Unknown key.
	if _, ok, err := db.ArrayGet([]int64{99, 0, 0}); err != nil || ok {
		t.Fatalf("ArrayGet(unknown) = (%v, %v)", ok, err)
	}

	// ArraySum over the whole cube equals the SQL grand total.
	total, err := db.ArraySum([]int64{0, 0, 0}, []int64{11, 7, 5})
	if err != nil {
		t.Fatalf("ArraySum: %v", err)
	}
	res, err := db.Query(`select sum(volume) from fact`)
	if err != nil {
		t.Fatal(err)
	}
	if total != res.Rows[0].Sum {
		t.Fatalf("ArraySum = %d, SQL total = %d", total, res.Rows[0].Sum)
	}
	// Sub-box equals a manual sum.
	sub, err := db.ArraySum([]int64{2, 1, 0}, []int64{5, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for p := int64(2); p <= 5; p++ {
		for s := int64(1); s <= 3; s++ {
			for tm := int64(0); tm <= 2; tm++ {
				if (p+s+tm)%4 == 0 {
					want += p*100 + s*10 + tm
				}
			}
		}
	}
	if sub != want {
		t.Fatalf("ArraySum(box) = %d, want %d", sub, want)
	}
	// Errors.
	if _, err := db.ArraySum([]int64{0}, []int64{1}); err == nil {
		t.Fatal("ArraySum with wrong arity succeeded")
	}
	if _, err := db.ArraySum([]int64{0, 0, 0}, []int64{99, 7, 5}); err == nil {
		t.Fatal("ArraySum with unknown key succeeded")
	}

	// ArraySlice along store=2.
	cells, err := db.ArraySlice("store", 2)
	if err != nil {
		t.Fatalf("ArraySlice: %v", err)
	}
	var sliceSum, wantSlice int64
	for _, c := range cells {
		if c.Keys[1] != 2 {
			t.Fatalf("slice cell with store key %d", c.Keys[1])
		}
		sliceSum += c.Value
	}
	for p := int64(0); p < 12; p++ {
		for tm := int64(0); tm < 6; tm++ {
			if (p+2+tm)%4 == 0 {
				wantSlice += p*100 + 20 + tm
			}
		}
	}
	if sliceSum != wantSlice {
		t.Fatalf("slice sum = %d, want %d", sliceSum, wantSlice)
	}
	// Unknown dimension / key.
	if _, err := db.ArraySlice("nope", 0); err == nil {
		t.Fatal("ArraySlice of unknown dimension succeeded")
	}
	if cells, err := db.ArraySlice("store", 99); err != nil || cells != nil {
		t.Fatalf("ArraySlice(unknown key) = (%v, %v)", cells, err)
	}
}

// TestArrayADTReadsOnlyOverlappingChunks: ArraySum and ArraySlice read
// only the chunks their box overlaps. Each call runs on a cold buffer
// pool and is measured in pages read from disk. ArrayGet of a cell of
// chunk (1,1,1) is the yardstick: the three key B-trees, the chunk, and
// what opening the array reads. A sum over the whole cube reads the
// same plus the other eleven chunks, which gives the pages per chunk.
func TestArrayADTReadsOnlyOverlappingChunks(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db) // 12x8x6 in 4x4x3 chunks: 3x2x2 of them
	cold := func(f func() error) uint64 {
		t.Helper()
		if err := db.DropCaches(); err != nil {
			t.Fatal(err)
		}
		before := db.Stats().Buffer.PhysicalReads
		if err := f(); err != nil {
			t.Fatal(err)
		}
		return db.Stats().Buffer.PhysicalReads - before
	}
	get := cold(func() error { _, _, err := db.ArrayGet([]int64{4, 4, 3}); return err })
	all := cold(func() error { _, err := db.ArraySum([]int64{0, 0, 0}, []int64{11, 7, 5}); return err })
	perChunk := (all - get) / 11
	if perChunk == 0 {
		t.Fatalf("a whole-cube sum read %d pages, a point read %d", all, get)
	}
	// The box is chunk (1,1,1), whole.
	if sum := cold(func() error { _, err := db.ArraySum([]int64{4, 4, 3}, []int64{7, 7, 5}); return err }); sum > get {
		t.Fatalf("a sum inside one chunk read %d pages, a point read in it %d", sum, get)
	}
	// Product 5 lies in the second product slab: 2x2 chunks. The slice
	// resolves one key, so it reads at most what Get reads and three
	// more chunks.
	if slice := cold(func() error { _, err := db.ArraySlice("product", 5); return err }); slice > get+3*perChunk {
		t.Fatalf("a slice through 4 chunks read %d pages, want at most %d", slice, get+3*perChunk)
	}
}

// TestWarmArrayGetZeroAlloc: a warm point read of a chunk-offset array
// with no deltas pending allocates nothing — the master array, its chunk
// store and the published delta view are shared, the reader lives on the
// stack, and the chunk is searched where it sits in its pinned frames.
func TestWarmArrayGetZeroAlloc(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetailArray(t, db, ArrayConfig{Codec: "chunk-offset"})
	keys := []int64{4, 0, 0}
	if v, ok, err := db.ArrayGet(keys); err != nil || !ok || v != 400 {
		t.Fatalf("ArrayGet(4,0,0) = (%d, %v, %v)", v, ok, err)
	}
	if st := db.DeltaStats(); st.Cells != 0 {
		t.Fatalf("%d delta cells pending", st.Cells)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := db.ArrayGet(keys); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm ArrayGet allocates %.1f objects/op, want 0", avg)
	}
}

// TestArraySumKeyBoxOutOfOrder: a key box selects the cells whose keys
// lie in it, whatever order the keys were loaded in. Array indexes
// follow load order, so an index range between the bounds' indexes is
// not the key box.
func TestArraySumKeyBoxOutOfOrder(t *testing.T) {
	for _, c := range []struct {
		name   string
		order  []int64
		lo, hi int64
	}{
		{"interleaved", []int64{0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11}, 1, 3},
		{"descending", []int64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, 2, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			loadRetailProducts(t, db, ArrayConfig{ChunkShape: []int{4, 4, 3}}, c.order)
			lo, hi := []int64{c.lo, 0, 0}, []int64{c.hi, 7, 5}
			got, err := db.ArraySum(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleSum(t, db, lo, hi); got != want {
				t.Fatalf("ArraySum(%v, %v) = %d, ArrayGet over the box sums %d", lo, hi, got, want)
			}
			if _, err := db.ArraySum(hi, lo); err == nil {
				t.Fatalf("inverted key box %v..%v accepted", hi, lo)
			}
		})
	}
}

// oracleSum sums ArrayGet over every cell of the key box [lo, hi] of the
// retail cube, whose keys are 0..n-1 along every dimension.
func oracleSum(t *testing.T, db *DB, lo, hi []int64) int64 {
	t.Helper()
	var sum int64
	for _, v := range oracleCells(t, db, lo, hi) {
		sum += v
	}
	return sum
}

// oracleCells reads every valid cell of the key box [lo, hi] with
// ArrayGet, keyed by its keys.
func oracleCells(t *testing.T, db *DB, lo, hi []int64) map[[3]int64]int64 {
	t.Helper()
	out := map[[3]int64]int64{}
	for p := lo[0]; p <= hi[0]; p++ {
		for s := lo[1]; s <= hi[1]; s++ {
			for tm := lo[2]; tm <= hi[2]; tm++ {
				v, ok, err := db.ArrayGet([]int64{p, s, tm})
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					out[[3]int64{p, s, tm}] = v
				}
			}
		}
	}
	return out
}

// TestArrayADTDifferential: ArraySum and ArraySlice agree with ArrayGet
// over every cell of the box, on every codec, with deltas pending
// (overwrites, new cells, deletes) and again after they are compacted.
// The chunk shape leaves partial edge chunks along every dimension.
func TestArrayADTDifferential(t *testing.T) {
	sizes := []int64{12, 8, 6}
	boxes := []struct {
		name   string
		lo, hi []int64
	}{
		{"whole cube", []int64{0, 0, 0}, []int64{11, 7, 5}},
		{"one chunk", []int64{5, 3, 0}, []int64{9, 5, 3}},
		{"straddling", []int64{3, 2, 2}, []int64{7, 6, 5}},
		{"partial edge chunk", []int64{10, 6, 4}, []int64{11, 7, 5}},
		{"one cell", []int64{7, 3, 2}, []int64{7, 3, 2}},
		{"one empty cell", []int64{7, 3, 1}, []int64{7, 3, 1}},
	}
	dims := []string{"product", "store", "time"}
	for _, codec := range []string{"chunk-offset", "dense", "diff-seq", "lzw", "adaptive"} {
		t.Run(codec, func(t *testing.T) {
			db, err := Open(Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			loadRetailArray(t, db, ArrayConfig{ChunkShape: []int{5, 3, 4}, Codec: codec})
			err = db.InsertCells([]IngestCell{
				{Keys: []int64{4, 0, 0}, Value: 999},    // overwrite
				{Keys: []int64{7, 3, 1}, Value: 71},     // new, next to a stored cell
				{Keys: []int64{11, 7, 4}, Value: 1174},  // new, in the partial edge chunk
				{Keys: []int64{10, 7, 5}, Delete: true}, // delete, in the partial edge chunk
				{Keys: []int64{5, 3, 0}, Delete: true},  // delete
				{Keys: []int64{6, 4, 2}, Value: -3},     // overwrite with a negative
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, state := range []string{"pending", "compacted"} {
				if state == "compacted" {
					if err := db.Compact(); err != nil {
						t.Fatal(err)
					}
					if st := db.DeltaStats(); st.Cells != 0 {
						t.Fatalf("%d delta cells left after Compact", st.Cells)
					}
				}
				for _, b := range boxes {
					want := oracleCells(t, db, b.lo, b.hi)
					var wantSum int64
					for _, v := range want {
						wantSum += v
					}
					if got, err := db.ArraySum(b.lo, b.hi); err != nil || got != wantSum {
						t.Fatalf("%s: ArraySum %s = %d, %v; ArrayGet sums %d", state, b.name, got, err, wantSum)
					}
				}
				for d, name := range dims {
					for key := int64(0); key < sizes[d]; key++ {
						lo, hi := []int64{0, 0, 0}, []int64{11, 7, 5}
						lo[d], hi[d] = key, key
						want := oracleCells(t, db, lo, hi)
						cells, err := db.ArraySlice(name, key)
						if err != nil {
							t.Fatal(err)
						}
						got := map[[3]int64]int64{}
						for _, c := range cells {
							got[[3]int64{c.Keys[0], c.Keys[1], c.Keys[2]}] = c.Value
						}
						if len(got) != len(cells) || !maps.Equal(got, want) {
							t.Fatalf("%s: ArraySlice(%s, %d) = %v, ArrayGet reads %v", state, name, key, cells, want)
						}
					}
				}
			}
		})
	}
}

// TestArrayADTLeavesChunkCacheEmpty: the ADT's box reads take a clean
// chunk-offset chunk from its pinned frames, so they leave nothing in
// the decoded-chunk cache.
func TestArrayADTLeavesChunkCacheEmpty(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetailArray(t, db, ArrayConfig{ChunkShape: []int{4, 4, 3}, Codec: "chunk-offset"})
	db.EnableQueryCache(8 << 20)
	if _, err := db.ArraySum([]int64{0, 0, 0}, []int64{11, 7, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ArraySlice("product", 5); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats().ChunkCache; st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("the decoded-chunk cache holds %d entries, %d B after ArraySum and ArraySlice", st.Entries, st.Bytes)
	}
}
