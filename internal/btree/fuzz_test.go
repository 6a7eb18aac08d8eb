package btree

import (
	"math"
	"testing"
	"time"

	"repro/internal/storage"
)

// A fuzzed tree has fuzzNodes node pages, ids 0 to fuzzNodes-1, each
// given its first fuzzNodeBytes by the input; the rest of a page is zero.
const (
	fuzzNodes     = 8
	fuzzNodeBytes = 256
)

// fuzzTreeBytes encodes a tree of 12 entries, four to a node, as a fuzz
// input: the root's page index, then each page's first fuzzNodeBytes.
// The tree's meta page is one of them, read as a node.
func fuzzTreeBytes(f *testing.F) []byte {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 32)
	tr, err := Create(bp)
	if err != nil {
		f.Fatal(err)
	}
	tr.setBranching(4)
	for k := int64(0); k < 12; k++ {
		if err := tr.Insert(k%6, uint64(k)); err != nil {
			f.Fatal(err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		f.Fatal(err)
	}
	disk := bp.Disk()
	if disk.NumPages() > fuzzNodes {
		f.Fatalf("the seed tree takes %d pages, more than %d", disk.NumPages(), fuzzNodes)
	}
	meta := make([]byte, storage.PageSize)
	if err := disk.ReadPage(tr.Root(), meta); err != nil {
		f.Fatal(err)
	}
	out := []byte{byte(storage.GetUint64(meta, metaRootOff))}
	page := make([]byte, storage.PageSize)
	for id := uint64(0); id < disk.NumPages(); id++ {
		if err := disk.ReadPage(storage.PageID(id), page); err != nil {
			f.Fatal(err)
		}
		out = append(out, page[:fuzzNodeBytes]...)
	}
	return out
}

// FuzzBTreeNode reads arbitrary bytes as the node pages of a tree under
// a valid meta page, through Search, AscendRange and Contains. Whatever
// the pages say, every call returns — an error is fine, a panic or a
// hang is not — nothing is left pinned, and no call hands over more
// entries than the pages could hold.
func FuzzBTreeNode(f *testing.F) {
	tree := fuzzTreeBytes(f)
	f.Add(tree)
	// The two crashers: a root leaf counting 0xFFFF entries, and one
	// whose next leaf is itself.
	f.Add([]byte{0, leafNode, 0xFF, 0xFF})
	f.Add([]byte{0, leafNode, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		bp := storage.NewBufferPool(storage.NewMemDiskManager(), 4)
		for i := 0; i < fuzzNodes; i++ {
			id, buf, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			if lo := 1 + i*fuzzNodeBytes; lo < len(data) {
				copy(buf, data[lo:min(lo+fuzzNodeBytes, len(data))])
			}
			if err := bp.Unpin(id, true); err != nil {
				t.Fatal(err)
			}
		}
		meta, buf, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		storage.PutUint64(buf, metaRootOff, uint64(data[0]%fuzzNodes))
		storage.PutUint64(buf, metaHeightOff, 1)
		if err := bp.Unpin(meta, true); err != nil {
			t.Fatal(err)
		}
		tr := Open(bp, meta)

		// Every entry a call hands over comes off a leaf page, and a walk
		// visits at most 64 pages or twice the volume's, whichever is more
		// (checkPath).
		limit := max(64, 2*int(bp.Disk().NumPages())) * MaxLeafEntries
		done := make(chan string, 1)
		go func() {
			for _, k := range []int64{math.MinInt64, -1, 0, 3, 5, 9, math.MaxInt64} {
				if vals, _ := tr.Search(k); len(vals) > limit {
					done <- "Search handed over too many values"
					return
				}
				tr.Contains(k, uint64(k))
			}
			n := 0
			tr.AscendRange(math.MinInt64, math.MaxInt64, func(int64, uint64) error {
				if n++; n > limit {
					return ErrStopScan
				}
				return nil
			})
			if n > limit {
				done <- "AscendRange handed over too many entries"
				return
			}
			done <- ""
		}()
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a read still running after 10 s")
		}
		if n := bp.PinnedPages(); n != 0 {
			t.Fatalf("%d pages left pinned", n)
		}
	})
}
