package bitmap

import (
	"testing"

	"repro/internal/storage"
)

func buildTestIndex() *Index {
	ix := NewIndex(1000)
	for i := uint64(0); i < 1000; i++ {
		switch i % 3 {
		case 0:
			ix.Add("AA1", i)
		case 1:
			ix.Add("AA2", i)
		default:
			ix.Add("AA3", i)
		}
	}
	return ix
}

func TestIndexAddGet(t *testing.T) {
	ix := buildTestIndex()
	if ix.NumValues() != 3 {
		t.Fatalf("NumValues = %d, want 3", ix.NumValues())
	}
	bm, ok := ix.Get("AA1")
	if !ok {
		t.Fatal("Get(AA1) missing")
	}
	if bm.Count() != 334 { // 0, 3, 6, ..., 999
		t.Fatalf("AA1 count = %d, want 334", bm.Count())
	}
	if !bm.Test(0) || bm.Test(1) {
		t.Fatal("AA1 membership wrong")
	}
	if _, ok := ix.Get("ZZ9"); ok {
		t.Fatal("Get of absent value succeeded")
	}
	vals := ix.Values()
	if len(vals) != 3 || vals[0] != "AA1" || vals[2] != "AA3" {
		t.Fatalf("Values = %v", vals)
	}
}

func TestIndexValueBitmapsPartition(t *testing.T) {
	ix := buildTestIndex()
	// The three value bitmaps must partition the tuple space: pairwise
	// disjoint, union = all.
	union := New(1000)
	var total uint64
	for _, v := range ix.Values() {
		bm, _ := ix.Get(v)
		inter := union.Clone()
		inter.And(bm)
		if inter.Count() != 0 {
			t.Fatalf("value %s overlaps earlier values", v)
		}
		union.Or(bm)
		total += bm.Count()
	}
	if total != 1000 || union.Count() != 1000 {
		t.Fatalf("partition broken: total=%d union=%d", total, union.Count())
	}
}

func TestIndexMarshalRoundtrip(t *testing.T) {
	ix := buildTestIndex()
	got, err := UnmarshalIndex(ix.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalIndex: %v", err)
	}
	if got.NBits != ix.NBits || got.NumValues() != ix.NumValues() {
		t.Fatalf("roundtrip header: nbits=%d values=%d", got.NBits, got.NumValues())
	}
	for _, v := range ix.Values() {
		want, _ := ix.Get(v)
		bm, ok := got.Get(v)
		if !ok || !bm.Equal(want) {
			t.Fatalf("value %s lost in roundtrip", v)
		}
	}
}

func TestIndexUnmarshalCorrupt(t *testing.T) {
	enc := buildTestIndex().Marshal()
	for _, n := range []int{0, 1, 3, len(enc) / 2} {
		if _, err := UnmarshalIndex(enc[:n]); err == nil {
			t.Fatalf("UnmarshalIndex accepted %d-byte prefix", n)
		}
	}
}

func TestIndexSaveLoad(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
	lob := storage.NewLOBStore(bp)
	ix := buildTestIndex()
	ref, pages, err := ix.Save(lob)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if pages <= 0 {
		t.Fatalf("Save used %d pages", pages)
	}
	got, err := LoadIndex(lob, ref)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	for _, v := range ix.Values() {
		want, _ := ix.Get(v)
		bm, ok := got.Get(v)
		if !ok || !bm.Equal(want) {
			t.Fatalf("value %s lost across Save/Load", v)
		}
	}
}

func TestIndexReaderSeekableAccess(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 64)
	lob := storage.NewLOBStore(bp)
	ix := buildTestIndex()
	ref, _, err := ix.Save(lob)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexReader(lob, ref)
	if err != nil {
		t.Fatalf("OpenIndexReader: %v", err)
	}
	if r.NBits != ix.NBits || r.NumValues() != ix.NumValues() {
		t.Fatalf("reader header: nbits=%d values=%d", r.NBits, r.NumValues())
	}
	for _, v := range ix.Values() {
		want, _ := ix.Get(v)
		got := New(r.NBits)
		ok, err := r.OrInto(v, got)
		if err != nil || !ok || !got.Equal(want) {
			t.Fatalf("OrInto(%s) = (%v, %v)", v, ok, err)
		}
	}
	if ok, err := r.OrInto("ZZ", New(r.NBits)); err != nil || ok {
		t.Fatalf("OrInto(absent) = (%v, %v)", ok, err)
	}
	if _, err := r.OrInto("AA1", New(r.NBits+1)); err == nil {
		t.Fatal("OrInto a bitmap of another length succeeded")
	}

	// Seekable access must read fewer pages than loading the index.
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	before := bp.Stats()
	r2, err := OpenIndexReader(lob, ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.OrInto("AA1", New(r2.NBits)); err != nil {
		t.Fatal(err)
	}
	seek := bp.Stats().Sub(before).PhysicalReads

	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	before = bp.Stats()
	if _, err := LoadIndex(lob, ref); err != nil {
		t.Fatal(err)
	}
	full := bp.Stats().Sub(before).PhysicalReads
	if seek > full {
		t.Fatalf("seekable read cost %d pages, full load %d", seek, full)
	}
}

func TestIndexEmpty(t *testing.T) {
	ix := NewIndex(64)
	got, err := UnmarshalIndex(ix.Marshal())
	if err != nil || got.NumValues() != 0 || got.NBits != 64 {
		t.Fatalf("empty index roundtrip: %v", err)
	}
}
