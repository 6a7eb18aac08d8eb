package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage"
)

func newTestTree(t *testing.T, frames int) (*Tree, *storage.BufferPool) {
	t.Helper()
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), frames)
	tr, err := Create(bp)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return tr, bp
}

func TestBTreeEmpty(t *testing.T) {
	tr, _ := newTestTree(t, 8)
	n, err := tr.Len()
	if err != nil || n != 0 {
		t.Fatalf("Len = (%d, %v), want 0", n, err)
	}
	h, err := height(tr)
	if err != nil || h != 1 {
		t.Fatalf("Height = (%d, %v), want 1", h, err)
	}
	vals, err := search(tr, 5)
	if err != nil || len(vals) != 0 {
		t.Fatalf("Search on empty = (%v, %v)", vals, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

func TestBTreeInsertSearchSmall(t *testing.T) {
	tr, bp := newTestTree(t, 16)
	for i := int64(0); i < 100; i++ {
		if err := tr.Insert(i, uint64(i*10)); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	for i := int64(0); i < 100; i++ {
		vals, err := search(tr, i)
		if err != nil {
			t.Fatalf("Search(%d): %v", i, err)
		}
		if len(vals) != 1 || vals[0] != uint64(i*10) {
			t.Fatalf("Search(%d) = %v, want [%d]", i, vals, i*10)
		}
	}
	if vals, _ := search(tr, 1000); len(vals) != 0 {
		t.Fatalf("Search(absent) = %v", vals)
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages still pinned", bp.PinnedPages())
	}
}

func TestBTreeSplitsGrowHeight(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	n := MaxLeafEntries*3 + 17
	for i := 0; i < n; i++ {
		if err := tr.Insert(int64(i), uint64(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	h, _ := height(tr)
	if h < 2 {
		t.Fatalf("height = %d after %d inserts, want >= 2", h, n)
	}
	cnt, _ := tr.Len()
	if cnt != uint64(n) {
		t.Fatalf("Len = %d, want %d", cnt, n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

func TestBTreeDeepTreeWithSmallBranching(t *testing.T) {
	tr, _ := newTestTree(t, 1024)
	tr.setBranching(4)
	const n = 1000
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(int64(i), uint64(i)+7); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	h, _ := height(tr)
	if h < 4 {
		t.Fatalf("height = %d with branching 4 and %d keys, want deep tree", h, n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	for i := 0; i < n; i++ {
		vals, err := search(tr, int64(i))
		if err != nil || len(vals) != 1 || vals[0] != uint64(i)+7 {
			t.Fatalf("Search(%d) = (%v, %v)", i, vals, err)
		}
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	tr, _ := newTestTree(t, 512)
	tr.setBranching(4)
	// 50 values under each of 10 keys, inserted interleaved.
	for v := 0; v < 50; v++ {
		for k := 0; k < 10; k++ {
			if err := tr.Insert(int64(k), uint64(v*1000+k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	for k := 0; k < 10; k++ {
		vals, err := search(tr, int64(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != 50 {
			t.Fatalf("Search(%d) found %d values, want 50", k, len(vals))
		}
		if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
			t.Fatalf("Search(%d) values unsorted", k)
		}
		for i, v := range vals {
			if v != uint64(i*1000+k) {
				t.Fatalf("Search(%d)[%d] = %d, want %d", k, i, v, i*1000+k)
			}
		}
	}
}

func TestBTreeExactDuplicateEntries(t *testing.T) {
	tr, _ := newTestTree(t, 512)
	tr.setBranching(4)
	// The same (key, value) pair many times: multiset semantics, and the
	// straddling-split edge case for identical composites.
	const copies = 100
	for i := 0; i < copies; i++ {
		if err := tr.Insert(7, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	vals, err := search(tr, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != copies {
		t.Fatalf("Search found %d copies, want %d", len(vals), copies)
	}
}

func TestBTreeAscendRange(t *testing.T) {
	tr, _ := newTestTree(t, 512)
	tr.setBranching(5)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(int64(i*2), uint64(i)); err != nil { // even keys only
			t.Fatal(err)
		}
	}
	var keys []int64
	err := tr.AscendRange(101, 201, func(k int64, v uint64) error {
		keys = append(keys, k)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Even keys in [101, 201]: 102..200 -> 50 keys.
	if len(keys) != 50 || keys[0] != 102 || keys[len(keys)-1] != 200 {
		t.Fatalf("AscendRange returned %d keys [%d..%d], want 50 [102..200]",
			len(keys), keys[0], keys[len(keys)-1])
	}
	// Empty and inverted ranges.
	count := 0
	tr.AscendRange(1001, 2000, func(int64, uint64) error { count++; return nil })
	if count != 0 {
		t.Fatalf("AscendRange past end visited %d", count)
	}
	tr.AscendRange(10, 5, func(int64, uint64) error { count++; return nil })
	if count != 0 {
		t.Fatalf("inverted AscendRange visited %d", count)
	}
}

func TestBTreeAscendEarlyStop(t *testing.T) {
	tr, _ := newTestTree(t, 64)
	for i := 0; i < 100; i++ {
		tr.Insert(int64(i), uint64(i))
	}
	seen := 0
	err := tr.Ascend(func(k int64, v uint64) error {
		seen++
		if seen == 7 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || seen != 7 {
		t.Fatalf("early stop: seen=%d err=%v", seen, err)
	}
}

func TestBTreeNegativeKeys(t *testing.T) {
	tr, _ := newTestTree(t, 64)
	keys := []int64{-1000, -1, 0, 1, 1000, -500}
	for i, k := range keys {
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	tr.Ascend(func(k int64, v uint64) error {
		got = append(got, k)
		return nil
	})
	want := []int64{-1000, -500, -1, 0, 1, 1000}
	if len(got) != len(want) {
		t.Fatalf("Ascend = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend = %v, want %v", got, want)
		}
	}
}

func TestBTreeSearchFirstAndContains(t *testing.T) {
	tr, _ := newTestTree(t, 64)
	tr.Insert(5, 50)
	tr.Insert(5, 40)
	v, ok, err := tr.SearchFirst(5)
	if err != nil || !ok || v != 40 {
		t.Fatalf("SearchFirst = (%d, %v, %v), want 40", v, ok, err)
	}
	_, ok, err = tr.SearchFirst(6)
	if err != nil || ok {
		t.Fatalf("SearchFirst(absent) = (%v, %v)", ok, err)
	}
	for _, tc := range []struct {
		k    int64
		v    uint64
		want bool
	}{{5, 40, true}, {5, 50, true}, {5, 60, false}, {6, 40, false}} {
		got, err := contains(tr, tc.k, tc.v)
		if err != nil || got != tc.want {
			t.Fatalf("Contains(%d,%d) = (%v, %v), want %v", tc.k, tc.v, got, err, tc.want)
		}
	}
}

func TestBTreeReopen(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 256)
	tr, err := Create(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := tr.Insert(int64(i), uint64(i*3)); err != nil {
			t.Fatal(err)
		}
	}
	tr2 := Open(bp, tr.Root())
	n, err := tr2.Len()
	if err != nil || n != 10000 {
		t.Fatalf("reopened Len = (%d, %v)", n, err)
	}
	vals, err := search(tr2, 9999)
	if err != nil || len(vals) != 1 || vals[0] != 9999*3 {
		t.Fatalf("reopened Search = (%v, %v)", vals, err)
	}
}

// TestBTreeRandomizedAgainstReference drives the tree with random
// inserts, duplicates included, mirroring them in an in-memory
// reference, and checks ordered iteration and invariants.
func TestBTreeRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr, bp := newTestTree(t, 2048)
	tr.setBranching(6)
	type entry struct {
		k int64
		v uint64
	}
	ref := make(map[entry]int)
	for op := 0; op < 5000; op++ {
		k := int64(rng.Intn(50) - 25)
		v := uint64(rng.Intn(40))
		if err := tr.Insert(k, v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		ref[entry{k, v}]++
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	// Full ordered iteration must match the sorted reference multiset.
	var want []entry
	for e, c := range ref {
		for i := 0; i < c; i++ {
			want = append(want, e)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].k != want[j].k {
			return want[i].k < want[j].k
		}
		return want[i].v < want[j].v
	})
	var got []entry
	tr.Ascend(func(k int64, v uint64) error {
		got = append(got, entry{k, v})
		return nil
	})
	if len(got) != len(want) {
		t.Fatalf("iteration found %d entries, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages still pinned", bp.PinnedPages())
	}
}

// Property: for random insert batches, Search(k) returns exactly the
// values inserted under k, sorted ascending.
func TestBTreeQuickSearchMatchesInserts(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		bp := storage.NewBufferPool(storage.NewMemDiskManager(), 512)
		tr, err := Create(bp)
		if err != nil {
			return false
		}
		tr.setBranching(5)
		n := int(nRaw)%800 + 1
		ref := map[int64][]uint64{}
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(30))
			v := uint64(rng.Intn(1 << 30))
			if err := tr.Insert(k, v); err != nil {
				return false
			}
			ref[k] = append(ref[k], v)
		}
		for k, want := range ref {
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got, err := search(tr, k)
			if err != nil || len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeNumPages(t *testing.T) {
	tr, _ := newTestTree(t, 1024)
	tr.setBranching(4)
	empty, err := tr.NumPages()
	if err != nil || empty != 2 { // meta + root leaf
		t.Fatalf("empty NumPages = (%d, %v), want 2", empty, err)
	}
	for i := 0; i < 500; i++ {
		tr.Insert(int64(i), uint64(i))
	}
	n, err := tr.NumPages()
	if err != nil {
		t.Fatal(err)
	}
	// 500 entries at branching 4 need at least 125 leaves plus internals.
	if n < 125 {
		t.Fatalf("NumPages = %d after 500 inserts at branching 4", n)
	}
}

func TestBTreeLargeSequentialAndReverse(t *testing.T) {
	for _, dir := range []string{"asc", "desc"} {
		t.Run(dir, func(t *testing.T) {
			tr, _ := newTestTree(t, 4096)
			const n = 60000
			for i := 0; i < n; i++ {
				k := int64(i)
				if dir == "desc" {
					k = int64(n - i)
				}
				if err := tr.Insert(k, uint64(k)); err != nil {
					t.Fatal(err)
				}
			}
			cnt, _ := tr.Len()
			if cnt != n {
				t.Fatalf("Len = %d, want %d", cnt, n)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("CheckInvariants: %v", err)
			}
			prev := int64(-1)
			tr.Ascend(func(k int64, v uint64) error {
				if k <= prev {
					return fmt.Errorf("out of order: %d after %d", k, prev)
				}
				prev = k
				return nil
			})
		})
	}
}

// rootLeaf returns the page id of t's root, a leaf in these tests.
func rootLeaf(t *testing.T, tr *Tree) storage.PageID {
	t.Helper()
	buf, err := tr.fetchMeta()
	if err != nil {
		t.Fatal(err)
	}
	root := storage.PageID(storage.GetUint64(buf, metaRootOff))
	if err := tr.bp.Unpin(tr.meta, false); err != nil {
		t.Fatal(err)
	}
	return root
}

// patchNode rewrites part of a node page, as a corrupt volume would
// present it.
func patchNode(t *testing.T, bp *storage.BufferPool, id storage.PageID, patch func(buf []byte)) {
	t.Helper()
	buf, err := bp.FetchPageForWrite(id)
	if err != nil {
		t.Fatal(err)
	}
	patch(buf)
	if err := bp.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeCorruptCount is a regression test: a leaf whose count field
// read 0xFFFF made Search slice past the page and panic.
func TestBTreeCorruptCount(t *testing.T) {
	tr, bp := newTestTree(t, 16)
	for k := int64(1); k <= 5; k++ {
		if err := tr.Insert(k, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	patchNode(t, bp, rootLeaf(t, tr), func(buf []byte) { storage.PutUint16(buf, nodeCountOff, 0xFFFF) })
	if _, err := search(tr, 5); err == nil || !strings.Contains(err.Error(), "65535 entries") {
		t.Fatalf("Search on a 65535-entry leaf: err = %v", err)
	}
	if err := tr.Insert(6, 6); err == nil {
		t.Fatal("Insert accepted a 65535-entry leaf")
	}
	if n := bp.PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// TestBTreeLeafChainLoop is a regression test: a leaf whose next pointer
// named itself made Search follow the chain forever.
func TestBTreeLeafChainLoop(t *testing.T) {
	tr, bp := newTestTree(t, 16)
	for k := int64(1); k <= 5; k++ {
		if err := tr.Insert(k, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	root := rootLeaf(t, tr)
	patchNode(t, bp, root, func(buf []byte) { storage.PutUint64(buf, leafNextOff, uint64(root)) })
	done := make(chan error, 1)
	go func() {
		_, err := search(tr, 9)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "-page volume") {
			t.Fatalf("Search along a looping leaf chain: err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Search along a looping leaf chain still running after 10 s")
	}
	if _, err := contains(tr, 9, 9); err == nil {
		t.Fatal("Contains followed a looping leaf chain without error")
	}
	if n := bp.PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// TestBTreeLookupPinsLeafOnce: a lookup reads the meta page and one page
// per level, no more — the descent hands the leaf it found to the leaf
// walk still pinned instead of fetching it a second time — and leaves
// nothing pinned. A key equal to a separator is the exception by one
// page: the seek lands left of it and steps along the leaf chain.
func TestBTreeLookupPinsLeafOnce(t *testing.T) {
	tr, bp := newTestTree(t, 64)
	tr.setBranching(4)
	for k := int64(0); k < 10; k++ {
		if err := tr.Insert(k, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := height(tr); err != nil || h != 2 {
		t.Fatalf("Height = (%d, %v), want a two-level tree", h, err)
	}
	root := rootLeaf(t, tr)
	buf, err := tr.fetchNode(root)
	if err != nil {
		t.Fatal(err)
	}
	separator := map[int64]bool{}
	for i := 0; i < nodeCount(buf); i++ {
		separator[intKey(buf, i)] = true
	}
	if err := bp.Unpin(root, false); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 10; k++ {
		want := uint64(3) // meta, root, leaf
		if separator[k] {
			want++
		}
		before := bp.Stats().LogicalReads
		if v, ok, err := tr.SearchFirst(k); err != nil || !ok || v != uint64(k) {
			t.Fatalf("SearchFirst(%d) = (%d, %v, %v)", k, v, ok, err)
		}
		if n := bp.Stats().LogicalReads - before; n != want {
			t.Fatalf("SearchFirst(%d) fetched %d pages, want %d", k, n, want)
		}
		before = bp.Stats().LogicalReads
		if ok, err := contains(tr, k, uint64(k)); err != nil || !ok {
			t.Fatalf("Contains(%d) = (%v, %v)", k, ok, err)
		}
		if n := bp.Stats().LogicalReads - before; n != want {
			t.Fatalf("Contains(%d) fetched %d pages, want %d", k, n, want)
		}
	}
	if n := bp.PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// search returns every value stored under key, in ascending order.
func search(tr *Tree, key int64) ([]uint64, error) {
	var out []uint64
	err := tr.SearchEach(key, func(v uint64) error {
		out = append(out, v)
		return nil
	})
	return out, err
}

// contains reports whether the exact (key, value) entry is present.
func contains(tr *Tree, key int64, value uint64) (bool, error) {
	found := false
	err := tr.SearchEach(key, func(v uint64) error {
		if found = v == value; found {
			return ErrStopScan
		}
		return nil
	})
	return found, err
}

// height reads the tree height off the meta page: 1 when the root is a
// leaf.
func height(tr *Tree) (int, error) {
	buf, err := tr.fetchMeta()
	if err != nil {
		return 0, err
	}
	h := int(storage.GetUint64(buf, metaHeightOff))
	return h, tr.bp.Unpin(tr.meta, false)
}
