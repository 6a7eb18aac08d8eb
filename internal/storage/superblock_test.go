package storage

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuperblockInitAndRoots: an empty volume gets its two slot pages
// and no catalog root; each commit writes the other slot with the next
// sequence and names the new root, two fsyncs apiece.
func TestSuperblockInitAndRoots(t *testing.T) {
	bp := newTestPool(4)
	sb, err := OpenSuperblock(bp)
	if err != nil {
		t.Fatalf("OpenSuperblock: %v", err)
	}
	if n := bp.Disk().NumPages(); n != SlotPages {
		t.Fatalf("empty volume initialized to %d pages, want %d", n, SlotPages)
	}
	if root, ok := sb.Catalog(); ok {
		t.Fatalf("Catalog on empty volume = %v, want absent", root)
	}
	for i, root := range []PageID{42, 43} {
		if err := sb.Commit(root); err != nil {
			t.Fatalf("Commit(%v): %v", root, err)
		}
		if got, ok := sb.Catalog(); !ok || got != root {
			t.Fatalf("Catalog after Commit(%v) = (%v, %v)", root, got, ok)
		}
		// Slot 0 holds sequence 1 from the init; commits alternate 1, 0.
		seq, got, ok := slotOn(t, bp.Disk(), PageID(1-i))
		if !ok || seq != uint64(i+2) || got != root {
			t.Fatalf("slot %d = (seq %d, root %v, valid %v), want seq %d root %v", 1-i, seq, got, ok, i+2, root)
		}
	}
	if st := sb.Stats(); st.Commits != 2 || st.Fsyncs != 4 {
		t.Fatalf("Stats = %+v, want 2 commits and 4 fsyncs", st)
	}
}

// slotOn decodes the slot on page id of disk.
func slotOn(t *testing.T, disk DiskManager, id PageID) (uint64, PageID, bool) {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := disk.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	return readSlot(buf)
}

func TestSuperblockPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.db")
	d, err := OpenFileDiskManager(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	bp := NewBufferPool(d, 8)
	sb, err := OpenSuperblock(bp)
	if err != nil {
		t.Fatalf("OpenSuperblock: %v", err)
	}
	if err := sb.Commit(777); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	d.Close()

	d2, err := OpenFileDiskManager(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	sb2, err := OpenSuperblock(NewBufferPool(d2, 8))
	if err != nil {
		t.Fatalf("OpenSuperblock after reopen: %v", err)
	}
	if root, ok := sb2.Catalog(); !ok || root != 777 {
		t.Fatalf("Catalog after reopen = (%v, %v), want 777", root, ok)
	}
}

// TestSuperblockTornNewerSlotFallsBack: a newer slot whose checksum
// fails (a write torn by a crash) is passed over for the older one, and
// the next commit overwrites the torn slot, not the one Open took.
func TestSuperblockTornNewerSlotFallsBack(t *testing.T) {
	d := NewMemDiskManager()
	sb, err := OpenSuperblock(NewBufferPool(d, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []PageID{10, 20} { // 10 in slot 1, 20 in slot 0
		if err := sb.Commit(root); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, PageSize)
	d.ReadPage(0, buf)
	buf[slotRootOff] ^= 0xFF // torn: the new root without its checksum
	d.WritePage(0, buf)

	sb2, err := OpenSuperblock(NewBufferPool(d, 4))
	if err != nil {
		t.Fatalf("OpenSuperblock with a torn newer slot: %v", err)
	}
	if root, _ := sb2.Catalog(); root != 10 {
		t.Fatalf("Catalog = %v, want the older slot's 10", root)
	}
	if err := sb2.Commit(30); err != nil {
		t.Fatal(err)
	}
	if seq, root, ok := slotOn(t, d, 0); !ok || root != 30 || seq != 3 {
		t.Fatalf("slot 0 after the next commit = (seq %d, root %v, valid %v), want seq 3 root 30", seq, root, ok)
	}
	if _, root, ok := slotOn(t, d, 1); !ok || root != 10 {
		t.Fatalf("slot 1 = (root %v, valid %v): the commit Open took was overwritten", root, ok)
	}
}

// TestWritePinOfCommittedPageRefused: a page allocated since the last
// commit may be write-pinned; once a commit is durable it may not, and
// pages allocated after the commit may again.
func TestWritePinOfCommittedPageRefused(t *testing.T) {
	bp := newTestPool(4)
	sb, err := OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id, true)
	if _, err := bp.FetchPageForWrite(id); err != nil {
		t.Fatalf("write pin of a fresh page: %v", err)
	}
	bp.Unpin(id, true)
	if err := sb.Commit(id); err != nil {
		t.Fatal(err)
	}
	if bp.Writable(id) {
		t.Fatalf("%v writable after the commit", id)
	}
	if _, err := bp.FetchPageForWrite(id); err == nil {
		t.Fatalf("write pin of committed %v succeeded", id)
	}
	if bp.PinnedPages() != 0 {
		t.Fatal("a refused write pin left a pin")
	}
	next, err := bp.AllocateExtent(3)
	if err != nil {
		t.Fatal(err)
	}
	for p := next; p < next+3; p++ {
		if _, err := bp.FetchPageForWrite(p); err != nil {
			t.Fatalf("write pin of %v allocated after the commit: %v", p, err)
		}
		bp.Unpin(p, true)
	}
	for _, p := range []PageID{0, 1, next + 3} {
		if bp.Writable(p) {
			t.Fatalf("%v writable", p)
		}
	}
}

func TestSuperblockRejectsGarbage(t *testing.T) {
	d := NewMemDiskManager()
	if _, err := d.Allocate(SlotPages); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, "JUNK")
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(d, 4)
	if _, err := OpenSuperblock(bp); err == nil {
		t.Fatal("OpenSuperblock accepted a corrupt header")
	}
}

// A volume written before blobs became single extents (superblock v1),
// or before commits became slot switches (v2, beside a page log), is
// refused by name, before any of its blobs is read.
func TestSuperblockRejectsV1Volume(t *testing.T) {
	for _, v := range []uint32{1, 2} {
		d := NewMemDiskManager()
		if _, err := d.Allocate(1); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		copy(buf, superMagic)
		PutUint32(buf, 4, v)
		if err := d.WritePage(0, buf); err != nil {
			t.Fatal(err)
		}
		_, err := OpenSuperblock(NewBufferPool(d, 4))
		if old := fmt.Sprintf("v%d", v); err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "v3") {
			t.Fatalf("OpenSuperblock(%s volume) = %v, want an error naming %s and v3", old, err, old)
		}
	}
}

// FuzzSuperblockSlot opens a volume whose two slot pages are arbitrary
// bytes: Open never panics, takes only a slot whose checksum holds and
// none with a lower sequence than another valid one, and refuses a v2
// header on page 0 by name.
func FuzzSuperblockSlot(f *testing.F) {
	slot := func(seq uint64, root PageID) []byte {
		buf := make([]byte, PageSize)
		putSlot(buf, seq, root)
		return buf[:slotSumOff+4]
	}
	v2 := make([]byte, 12)
	copy(v2, superMagic)
	PutUint32(v2, 4, 2)
	torn := slot(9, 70)
	torn[slotSeqOff] ^= 1
	f.Add(slot(1, 0), []byte{})
	f.Add(slot(4, 50), slot(5, 60))
	f.Add(slot(7, 50), slot(6, 60))
	f.Add(torn, slot(8, 60))
	f.Add(v2, slot(3, 60))
	f.Add([]byte("JUNK"), []byte("JUNK"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		d := NewMemDiskManager()
		d.Allocate(SlotPages)
		pages := [SlotPages][]byte{make([]byte, PageSize), make([]byte, PageSize)}
		copy(pages[0], a)
		copy(pages[1], b)
		for i, p := range pages {
			d.WritePage(PageID(i), p)
		}
		sb, err := OpenSuperblock(NewBufferPool(d, 4))
		if string(pages[0][0:4]) == superMagic && GetUint32(pages[0], 4) == 2 {
			if err == nil || !strings.Contains(err.Error(), "v2") {
				t.Fatalf("v2 header: Open = %v, want an error naming v2", err)
			}
			return
		}
		if err != nil {
			older := string(pages[0][0:4]) == superMagic && GetUint32(pages[0], 4) != superVersion
			for _, p := range pages {
				if _, _, ok := readSlot(p); ok && !older {
					t.Fatalf("Open refused a volume with a valid slot: %v", err)
				}
			}
			return
		}
		seq, root, ok := readSlot(pages[sb.slot])
		if !ok || seq != sb.seq || root != sb.root {
			t.Fatalf("took slot %v (seq %d, root %v), whose checksum fails or differs", sb.slot, sb.seq, sb.root)
		}
		if other, _, ok := readSlot(pages[1-sb.slot]); ok && other > seq {
			t.Fatalf("took seq %d over a valid seq %d", seq, other)
		}
	})
}
