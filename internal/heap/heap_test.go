package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage"
)

func newTestFile(t *testing.T, frames int) (*File, *storage.BufferPool) {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), frames)
	f, err := Create(bp)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return f, bp
}

// scanAll returns every record of f with its RID, in scan order.
func scanAll(t *testing.T, f *File) ([]RID, [][]byte) {
	t.Helper()
	var rids []RID
	var recs [][]byte
	if err := f.Scan(func(rid RID, rec []byte) error {
		rids = append(rids, rid)
		recs = append(recs, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return rids, recs
}

// TestHeapInsertGet: each record reads back, through Scan, at the RID
// its Insert returned.
func TestHeapInsertGet(t *testing.T) {
	f, bp := newTestFile(t, 8)
	recs := [][]byte{
		[]byte("hello"),
		[]byte(""),
		bytes.Repeat([]byte("x"), 1000),
	}
	var rids []RID
	for _, r := range recs {
		rid, err := f.Insert(r)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		rids = append(rids, rid)
	}
	gotRIDs, got := scanAll(t, f)
	if !slices.Equal(gotRIDs, rids) || !slices.EqualFunc(got, recs, bytes.Equal) {
		t.Fatalf("Scan = %v %q, want %v %q", gotRIDs, got, rids, recs)
	}
	n, err := f.NumTuples()
	if err != nil || n != 3 {
		t.Fatalf("NumTuples = (%d, %v), want 3", n, err)
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages still pinned", bp.PinnedPages())
	}
}

func TestHeapSpillsAcrossPages(t *testing.T) {
	f, _ := newTestFile(t, 8)
	rec := bytes.Repeat([]byte("a"), 3000) // ~2 per page
	const n = 20
	var rids []RID
	for i := 0; i < n; i++ {
		rec[0] = byte(i)
		rid, err := f.Insert(rec)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	pages, err := f.NumPages()
	if err != nil {
		t.Fatal(err)
	}
	if pages < 8 {
		t.Fatalf("only %d data pages for %d x 3000-byte records", pages, n)
	}
	gotRIDs, got := scanAll(t, f)
	if !slices.Equal(gotRIDs, rids) {
		t.Fatalf("Scan RIDs = %v, want %v", gotRIDs, rids)
	}
	for i, rec := range got {
		if rec[0] != byte(i) || len(rec) != 3000 {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestHeapScanOrderAndContent(t *testing.T) {
	f, _ := newTestFile(t, 8)
	const n = 500
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%04d", i))
		if _, err := f.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	err := f.Scan(func(rid RID, rec []byte) error {
		want := fmt.Sprintf("record-%04d", i)
		if string(rec) != want {
			return fmt.Errorf("scan item %d = %q, want %q", i, rec, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scan visited %d records, want %d", i, n)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	f, _ := newTestFile(t, 8)
	for i := 0; i < 10; i++ {
		if _, err := f.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	err := f.Scan(func(rid RID, rec []byte) error {
		seen++
		if seen == 3 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan with early stop: %v", err)
	}
	if seen != 3 {
		t.Fatalf("scan visited %d records after stop, want 3", seen)
	}
}

func TestHeapRejectsOversizedRecord(t *testing.T) {
	f, _ := newTestFile(t, 8)
	if _, err := f.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized insert succeeded")
	}
	if _, err := f.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size insert failed: %v", err)
	}
}

func TestHeapSizeBytes(t *testing.T) {
	f, _ := newTestFile(t, 8)
	sz, err := f.SizeBytes()
	if err != nil || sz != storage.PageSize { // header only
		t.Fatalf("empty SizeBytes = (%d, %v)", sz, err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Insert(bytes.Repeat([]byte("x"), 3000)); err != nil {
			t.Fatal(err)
		}
	}
	sz, err = f.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	pages, _ := f.NumPages()
	if sz != int64(pages+1)*storage.PageSize {
		t.Fatalf("SizeBytes = %d with %d data pages", sz, pages)
	}
}

func TestHeapReopenByRoot(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 8)
	f, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.Insert([]byte("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	root := f.Root()

	rids, got := scanAll(t, Open(bp, root))
	if len(got) != 1 || rids[0] != rid || string(got[0]) != "persisted" {
		t.Fatalf("Scan after reopen = %v %q", rids, got)
	}
}

// TestHeapInsertAfterCommitCopies: the first Insert after a commit
// moves the file into fresh pages, in scan order; the committed pages
// are not written, and the old root still scans the committed records.
func TestHeapInsertAfterCommitCopies(t *testing.T) {
	disk := storage.NewMemDiskManager()
	bp := storage.NewBufferPool(disk, 4)
	sb, err := storage.OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 7; i++ {
		rec := bytes.Repeat([]byte{byte('a' + i)}, 3000) // ~2 per page
		want = append(want, rec)
		if _, err := f.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Commit(f.Root()); err != nil {
		t.Fatal(err)
	}
	old := f.Root()
	committed := make(map[storage.PageID][]byte)
	if err := Open(bp, old).Pages(func(id storage.PageID, _ int) error {
		buf := make([]byte, storage.PageSize)
		committed[id] = buf
		return disk.ReadPage(id, buf)
	}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		rec := []byte(fmt.Sprintf("late-%d", i))
		want = append(want, rec)
		if _, err := f.Insert(rec); err != nil {
			t.Fatalf("Insert after the commit: %v", err)
		}
	}
	if f.Root() == old {
		t.Fatal("Insert after a commit kept the committed root")
	}
	if _, got := scanAll(t, f); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("the copy scans %d records, want %d in order", len(got), len(want))
	}
	if _, got := scanAll(t, Open(bp, old)); !slices.EqualFunc(got, want[:7], bytes.Equal) {
		t.Fatalf("the committed root scans %d records, want the 7 committed", len(got))
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	for id, img := range committed {
		if err := disk.ReadPage(id, buf); err != nil || !bytes.Equal(buf, img) {
			t.Fatalf("committed %v changed on disk (%v)", id, err)
		}
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages still pinned", bp.PinnedPages())
	}
}

// Property: a random sequence of inserts is fully recoverable by Scan,
// in order and at the RIDs Insert returned, under heavy page churn
// (tiny buffer pool).
func TestHeapQuickInsertRoundtrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		bp := storage.NewBufferPool(storage.NewMemDiskManager(), 4)
		hf, err := Create(bp)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(count)%64 + 1
		recs := make([][]byte, n)
		rids := make([]RID, n)
		for i := 0; i < n; i++ {
			rec := make([]byte, rng.Intn(2048))
			rng.Read(rec)
			recs[i] = rec
			rid, err := hf.Insert(rec)
			if err != nil {
				return false
			}
			rids[i] = rid
		}
		i := 0
		err = hf.Scan(func(rid RID, rec []byte) error {
			if rid != rids[i] || !bytes.Equal(rec, recs[i]) {
				return fmt.Errorf("mismatch at %d", i)
			}
			i++
			return nil
		})
		return err == nil && i == n && bp.PinnedPages() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// fuzzHeapPages is the data pages a FuzzHeapPage input fills after the
// header page; fuzzHeapBytes is how much of each page it writes.
const (
	fuzzHeapPages = 3
	fuzzHeapBytes = 64
)

// FuzzHeapPage reads arbitrary bytes as a heap file's header page and
// the front of its data pages (chain link, slot count, slot array),
// through Scan and Pages. Whatever the pages say, both return — an error
// is fine, a panic or a hang is not — and nothing is left pinned.
func FuzzHeapPage(f *testing.F) {
	// A valid file: header 0 chains data page 1 (two records) to page 2
	// (one record).
	valid := make([]byte, 32+fuzzHeapPages*fuzzHeapBytes)
	storage.PutUint64(valid, hdrFirstOff, 1)
	storage.PutUint64(valid, hdrLastOff, 2)
	storage.PutUint64(valid, hdrNPagesOff, 2)
	storage.PutUint64(valid, hdrNTupsOff, 3)
	for i, recs := range [][2]int{{2, 2}, {1, 3}} {
		pg := valid[32+i*fuzzHeapBytes:]
		storage.PutUint64(pg, pageNextOff, uint64(storage.InvalidPageID))
		if i == 0 {
			storage.PutUint64(pg, pageNextOff, 2)
		}
		storage.PutUint16(pg, pageSlotCntOff, uint16(recs[0]))
		for s := 0; s < recs[0]; s++ {
			storage.PutUint16(pg, pageSlotsOff+s*slotSize, uint16(storage.PageSize-(s+1)*recs[1]))
			storage.PutUint16(pg, pageSlotsOff+s*slotSize+2, uint16(recs[1]))
		}
	}
	f.Add(valid)
	looped := bytes.Clone(valid)
	storage.PutUint64(looped[32+fuzzHeapBytes:], pageNextOff, 1) // page 2 links back to 1
	storage.PutUint64(looped, hdrNPagesOff, 1<<40)
	f.Add(looped)
	f.Fuzz(func(t *testing.T, data []byte) {
		bp := storage.NewBufferPool(storage.NewMemDiskManager(), 4)
		for i := 0; i <= fuzzHeapPages; i++ {
			id, buf, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			lo, n := 0, 32
			if i > 0 {
				lo, n = 32+(i-1)*fuzzHeapBytes, fuzzHeapBytes
			}
			if lo < len(data) {
				copy(buf, data[lo:min(lo+n, len(data))])
			}
			if err := bp.Unpin(id, true); err != nil {
				t.Fatal(err)
			}
		}
		file := Open(bp, 0)
		done := make(chan struct{})
		go func() {
			defer close(done)
			file.Scan(func(RID, []byte) error { return nil })
			file.Pages(storage.NewMarks(bp.Disk().NumPages()).Mark)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a walk still running after 10 s")
		}
		if n := bp.PinnedPages(); n != 0 {
			t.Fatalf("%d pages left pinned", n)
		}
	})
}
