package array

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/storage"
)

// sliceFacts is a FactSource over an in-memory slice.
type sliceFacts struct {
	keys     [][]int64
	measures []int64
	pos      int
}

func (s *sliceFacts) Next() ([]int64, int64, bool, error) {
	if s.pos >= len(s.keys) {
		return nil, 0, false, nil
	}
	k, m := s.keys[s.pos], s.measures[s.pos]
	s.pos++
	return k, m, true, nil
}

// buildTestDims creates two dimension tables:
//
//	dim0: 6 members, h01 in {A0..A2} (key%3), h02 in {B0,B1} (key%2)
//	dim1: 4 members, h11 in {C0,C1} (key%2)
func buildTestDims(t *testing.T, bp *storage.BufferPool) []*catalog.DimensionTable {
	t.Helper()
	d0, err := catalog.CreateDimensionTable(bp, catalog.DimensionSchema{
		Name: "dim0", Key: "d0", Attrs: []string{"h01", "h02"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 6; k++ {
		if err := d0.Insert(k, []string{fmt.Sprintf("A%d", k%3), fmt.Sprintf("B%d", k%2)}); err != nil {
			t.Fatal(err)
		}
	}
	d1, err := catalog.CreateDimensionTable(bp, catalog.DimensionSchema{
		Name: "dim1", Key: "d1", Attrs: []string{"h11"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 4; k++ {
		if err := d1.Insert(k, []string{fmt.Sprintf("C%d", k%2)}); err != nil {
			t.Fatal(err)
		}
	}
	return []*catalog.DimensionTable{d0, d1}
}

func buildTestArray(t *testing.T, bp *storage.BufferPool) (*Array, map[[2]int64]int64) {
	t.Helper()
	dims := buildTestDims(t, bp)
	// A deterministic sparse fact set.
	ref := map[[2]int64]int64{}
	var facts sliceFacts
	for k0 := int64(0); k0 < 6; k0++ {
		for k1 := int64(0); k1 < 4; k1++ {
			if (k0+k1)%3 == 0 {
				v := k0*100 + k1
				facts.keys = append(facts.keys, []int64{k0, k1})
				facts.measures = append(facts.measures, v)
				ref[[2]int64{k0, k1}] = v
			}
		}
	}
	a, err := Build(bp, dims, &facts, BuildConfig{ChunkShape: []int{2, 2}})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return a, ref
}

func TestArrayBuildAndGet(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	a, ref := buildTestArray(t, bp)

	if a.NumDims() != 2 {
		t.Fatalf("NumDims = %d", a.NumDims())
	}
	if a.NumValidCells() != int64(len(ref)) {
		t.Fatalf("NumValidCells = %d, want %d", a.NumValidCells(), len(ref))
	}
	dims := a.Dims()
	if dims[0].Size() != 6 || dims[1].Size() != 4 {
		t.Fatalf("dimension sizes = %d, %d", dims[0].Size(), dims[1].Size())
	}

	for k0 := int64(0); k0 < 6; k0++ {
		for k1 := int64(0); k1 < 4; k1++ {
			v, ok, err := a.Get(chunk.View{}, []int64{k0, k1})
			if err != nil {
				t.Fatalf("Get(%d,%d): %v", k0, k1, err)
			}
			want, valid := ref[[2]int64{k0, k1}]
			if ok != valid || (ok && v != want) {
				t.Fatalf("Get(%d,%d) = (%d,%v), want (%d,%v)", k0, k1, v, ok, want, valid)
			}
		}
	}
	// Unknown key.
	if _, ok, err := a.Get(chunk.View{}, []int64{99, 0}); err != nil || ok {
		t.Fatalf("Get with unknown key = (%v, %v)", ok, err)
	}
	if _, _, err := a.Get(chunk.View{}, []int64{1}); err == nil {
		t.Fatal("Get with wrong arity succeeded")
	}
}

func TestArrayDimensionStructures(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	a, _ := buildTestArray(t, bp)
	d0 := a.Dims()[0]

	// Key B-tree.
	for k := int64(0); k < 6; k++ {
		idx, ok, err := d0.IndexOf(k)
		if err != nil || !ok || idx != int(k) { // insertion order = key order here
			t.Fatalf("IndexOf(%d) = (%d, %v, %v)", k, idx, ok, err)
		}
	}
	if _, ok, _ := d0.IndexOf(100); ok {
		t.Fatal("IndexOf unknown key succeeded")
	}

	// Level dictionaries and IndexToIndex arrays.
	h01 := d0.Levels[0]
	if h01.Attr != "h01" || h01.NumDistinct() != 3 {
		t.Fatalf("h01: attr=%s distinct=%d", h01.Attr, h01.NumDistinct())
	}
	for base := 0; base < 6; base++ {
		wantVal := fmt.Sprintf("A%d", base%3)
		code := h01.I2I[base]
		if h01.Dict[code] != wantVal {
			t.Fatalf("I2I[%d] -> %s, want %s", base, h01.Dict[code], wantVal)
		}
	}
	if c, ok := h01.Code("A1"); !ok || h01.Dict[c] != "A1" {
		t.Fatal("Code(A1) wrong")
	}
	if _, ok := h01.Code("ZZ"); ok {
		t.Fatal("Code of unknown value succeeded")
	}

	// Index lists via the attribute B-tree: members with h01 = A1 are
	// keys 1, 4 -> base indices 1, 4.
	list, pages, err := h01.IndexList("A1")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0] != 1 || list[1] != 4 {
		t.Fatalf("IndexList(A1) = %v, want [1 4]", list)
	}
	if pages < 2 { // the meta page and at least the leaf
		t.Fatalf("IndexList(A1) pinned %d pages", pages)
	}
	empty, pages, err := h01.IndexList("ZZ")
	if err != nil || empty != nil || pages != 0 {
		t.Fatalf("IndexList(ZZ) = (%v, %d pages, %v)", empty, pages, err)
	}
}

func TestArrayReopen(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	a, ref := buildTestArray(t, bp)

	a2, err := Open(bp, a.State())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if a2.NumValidCells() != a.NumValidCells() || a2.NumDims() != 2 {
		t.Fatal("reopened array metadata mismatch")
	}
	for k := [2]int64{0, 0}; k[0] < 6; k[0]++ {
		for k[1] = 0; k[1] < 4; k[1]++ {
			v, ok, err := a2.Get(chunk.View{}, k[:])
			if err != nil {
				t.Fatal(err)
			}
			want, valid := ref[k]
			if ok != valid || (ok && v != want) {
				t.Fatalf("reopened Get(%v) = (%d, %v)", k, v, ok)
			}
		}
	}
	// Level structures must survive.
	h02 := a2.Dims()[0].Levels[1]
	if h02.Attr != "h02" || h02.NumDistinct() != 2 {
		t.Fatalf("reopened h02: %s/%d", h02.Attr, h02.NumDistinct())
	}
	list, _, err := h02.IndexList("B0")
	if err != nil || len(list) != 3 { // keys 0, 2, 4
		t.Fatalf("reopened IndexList(B0) = (%v, %v)", list, err)
	}
}

func TestArrayBuildErrors(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	if _, err := Build(bp, nil, &sliceFacts{}, BuildConfig{}); err == nil {
		t.Fatal("Build with no dimensions succeeded")
	}

	dims := buildTestDims(t, bp)
	// Unknown key in fact stream.
	bad := &sliceFacts{keys: [][]int64{{99, 0}}, measures: []int64{1}}
	if _, err := Build(bp, dims, bad, BuildConfig{ChunkShape: []int{2, 2}}); err == nil {
		t.Fatal("Build with unknown fact key succeeded")
	}
	// Wrong arity.
	bad2 := &sliceFacts{keys: [][]int64{{0}}, measures: []int64{1}}
	if _, err := Build(bp, dims, bad2, BuildConfig{ChunkShape: []int{2, 2}}); err == nil {
		t.Fatal("Build with wrong fact arity succeeded")
	}
	// Duplicate fact cell.
	dup := &sliceFacts{keys: [][]int64{{0, 0}, {0, 0}}, measures: []int64{1, 2}}
	if _, err := Build(bp, dims, dup, BuildConfig{ChunkShape: []int{2, 2}}); err == nil {
		t.Fatal("Build with duplicate fact cell succeeded")
	}
	// Duplicate dimension key.
	d, _ := catalog.CreateDimensionTable(bp, catalog.DimensionSchema{Name: "dx", Key: "k", Attrs: nil})
	d.Insert(1, nil)
	d.Insert(1, nil)
	if _, err := Build(bp, []*catalog.DimensionTable{d}, &sliceFacts{}, BuildConfig{ChunkShape: []int{1}}); err == nil {
		t.Fatal("Build with duplicate dimension key succeeded")
	}
}

func TestArraySizeBytes(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	a, _ := buildTestArray(t, bp)
	sz, err := a.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if sz < a.Store().SizeBytes() {
		t.Fatalf("SizeBytes %d < store size %d", sz, a.Store().SizeBytes())
	}
	if sz%storage.PageSize != 0 {
		t.Fatalf("SizeBytes %d not page aligned", sz)
	}
}

func TestArrayLargerRandomized(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 4096)
	rng := rand.New(rand.NewSource(21))

	var dims []*catalog.DimensionTable
	sizes := []int64{13, 9, 17}
	for di, n := range sizes {
		dt, err := catalog.CreateDimensionTable(bp, catalog.DimensionSchema{
			Name: fmt.Sprintf("dim%d", di), Key: "k", Attrs: []string{"h1"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < n; k++ {
			dt.Insert(k, []string{fmt.Sprintf("g%d", k%4)})
		}
		dims = append(dims, dt)
	}
	ref := map[[3]int64]int64{}
	var facts sliceFacts
	for len(ref) < 400 {
		k := [3]int64{rng.Int63n(13), rng.Int63n(9), rng.Int63n(17)}
		if _, dup := ref[k]; dup {
			continue
		}
		v := rng.Int63n(2000) - 1000
		ref[k] = v
		facts.keys = append(facts.keys, []int64{k[0], k[1], k[2]})
		facts.measures = append(facts.measures, v)
	}
	a, err := Build(bp, dims, &facts, BuildConfig{ChunkShape: []int{5, 4, 6}, Codec: chunk.LZWCodec{}})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if a.Store().CodecName() != chunk.CodecLZW {
		t.Fatalf("codec = %s", a.Store().CodecName())
	}
	for k, want := range ref {
		v, ok, err := a.Get(chunk.View{}, k[:])
		if err != nil || !ok || v != want {
			t.Fatalf("Get(%v) = (%d, %v, %v), want %d", k, v, ok, err, want)
		}
	}
	if n := a.NumValidCells(); n != int64(len(ref)) {
		t.Fatalf("NumValidCells = %d, want %d", n, len(ref))
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages still pinned", bp.PinnedPages())
	}
}
