package repro

import (
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
