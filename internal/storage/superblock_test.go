package storage

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestSuperblockInitAndRoots(t *testing.T) {
	bp := newTestPool(4)
	sb, err := OpenSuperblock(bp)
	if err != nil {
		t.Fatalf("OpenSuperblock: %v", err)
	}
	if _, ok, err := sb.GetRoot("catalog"); err != nil || ok {
		t.Fatalf("GetRoot on empty = (%v, %v), want absent", ok, err)
	}
	if err := sb.SetRoot("catalog", 42); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	if err := sb.SetRoot("fact", 99); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	v, ok, err := sb.GetRoot("catalog")
	if err != nil || !ok || v != 42 {
		t.Fatalf("GetRoot(catalog) = (%d, %v, %v), want 42", v, ok, err)
	}
	// Update in place.
	if err := sb.SetRoot("catalog", 43); err != nil {
		t.Fatalf("SetRoot update: %v", err)
	}
	v, _, _ = sb.GetRoot("catalog")
	if v != 43 {
		t.Fatalf("updated root = %d, want 43", v)
	}
	names, err := sb.Roots()
	if err != nil {
		t.Fatalf("Roots: %v", err)
	}
	if len(names) != 2 || names[0] != "catalog" || names[1] != "fact" {
		t.Fatalf("Roots = %v", names)
	}
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
	if err := sb.SetRoot("array:sales", 777); err != nil {
		t.Fatalf("SetRoot: %v", err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	d.Close()

	d2, err := OpenFileDiskManager(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	bp2 := NewBufferPool(d2, 8)
	sb2, err := OpenSuperblock(bp2)
	if err != nil {
		t.Fatalf("OpenSuperblock after reopen: %v", err)
	}
	v, ok, err := sb2.GetRoot("array:sales")
	if err != nil || !ok || v != 777 {
		t.Fatalf("GetRoot after reopen = (%d, %v, %v), want 777", v, ok, err)
	}
}

func TestSuperblockRejectsGarbage(t *testing.T) {
	d := NewMemDiskManager()
	if _, err := d.Allocate(1); err != nil {
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

// A volume written before blobs became single extents (superblock v1)
// is refused by name, before any of its blobs is read.
func TestSuperblockRejectsV1Volume(t *testing.T) {
	d := NewMemDiskManager()
	if _, err := d.Allocate(1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	copy(buf, superMagic)
	PutUint32(buf, 4, 1)
	if err := d.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSuperblock(NewBufferPool(d, 4))
	if err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "v2") {
		t.Fatalf("OpenSuperblock(v1 volume) = %v, want an error naming v1 and v2", err)
	}
}

func TestSuperblockNameTooLong(t *testing.T) {
	bp := newTestPool(4)
	sb, err := OpenSuperblock(bp)
	if err != nil {
		t.Fatal(err)
	}
	long := string(make([]byte, superNameLen+1))
	if err := sb.SetRoot(long, 1); err == nil {
		t.Fatal("SetRoot with oversized name succeeded")
	}
	if _, _, err := sb.GetRoot(long); err == nil {
		t.Fatal("GetRoot with oversized name succeeded")
	}
}
