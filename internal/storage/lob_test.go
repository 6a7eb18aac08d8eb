package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLOBRoundtripSizes(t *testing.T) {
	bp := newTestPool(64)
	s := NewLOBStore(bp)
	sizes := []int{0, 1, 100, PageSize - lobLenSize, PageSize - lobLenSize + 1, PageSize - 1, PageSize,
		PageSize + 1, 3 * PageSize, walkRun * PageSize, walkRun*PageSize + 5}
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		ref, pages, err := s.Write(data)
		if err != nil {
			t.Fatalf("Write(%d bytes): %v", n, err)
		}
		if want := (n + lobLenSize + PageSize - 1) / PageSize; pages != want || pages != BlobPages(n) {
			t.Errorf("Write(%d bytes) used %d pages, want %d", n, pages, want)
		}
		got, err := s.Read(ref)
		if err != nil {
			t.Fatalf("Read(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("roundtrip mismatch at %d bytes", n)
		}
		l, err := s.Length(ref)
		if err != nil {
			t.Fatalf("Length: %v", err)
		}
		if l != n {
			t.Fatalf("Length = %d, want %d", l, n)
		}
		// The same bytes as a raw extent: from byte 0, length kept by
		// the caller.
		ref, pages, err = s.WriteExtent(data)
		if err != nil {
			t.Fatalf("WriteExtent(%d bytes): %v", n, err)
		}
		if want := max(1, (n+PageSize-1)/PageSize); pages != want || pages != ExtentPages(n) {
			t.Errorf("WriteExtent(%d bytes) used %d pages, want %d", n, pages, want)
		}
		if got, err := s.ReadExtent(ref, n, nil); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadExtent(%d bytes) = %d bytes, %v", n, len(got), err)
		}
	}
	if bp.PinnedPages() != 0 {
		t.Fatalf("%d pages still pinned", bp.PinnedPages())
	}
}

func TestLOBInvalidRef(t *testing.T) {
	s := NewLOBStore(newTestPool(4))
	if _, err := s.Read(InvalidLOBRef); err == nil {
		t.Fatal("Read of invalid ref succeeded")
	}
	if _, err := s.Length(InvalidLOBRef); err == nil {
		t.Fatal("Length of invalid ref succeeded")
	}
	if InvalidLOBRef.Valid() {
		t.Fatal("InvalidLOBRef.Valid() = true")
	}
}

func TestLOBManyBlobsInterleaved(t *testing.T) {
	bp := newTestPool(32)
	s := NewLOBStore(bp)
	rng := rand.New(rand.NewSource(7))
	type blob struct {
		ref  LOBRef
		data []byte
	}
	var blobs []blob
	for i := 0; i < 50; i++ {
		data := make([]byte, rng.Intn(4*PageSize))
		rng.Read(data)
		ref, _, err := s.Write(data)
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
		blobs = append(blobs, blob{ref, data})
	}
	for i, b := range blobs {
		got, err := s.Read(b.ref)
		if err != nil {
			t.Fatalf("Read blob %d: %v", i, err)
		}
		if !bytes.Equal(got, b.data) {
			t.Fatalf("blob %d corrupted", i)
		}
	}
}

func TestLOBReadRange(t *testing.T) {
	bp := newTestPool(64)
	s := NewLOBStore(bp)
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 5*PageSize+123)
	rng.Read(data)
	ref, _, err := s.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int }{
		{0, 0},
		{0, 10},
		{0, len(data)},
		{PageSize - 5, 10},          // straddles a page boundary
		{2 * PageSize, PageSize},    // exactly one page
		{len(data) - 7, 7},          // tail
		{3*PageSize + 17, PageSize}, // inner page-crossing range
	}
	for _, c := range cases {
		got, err := s.ReadRange(ref, c.off, c.n)
		if err != nil {
			t.Fatalf("ReadRange(%d, %d): %v", c.off, c.n, err)
		}
		if !bytes.Equal(got, data[c.off:c.off+c.n]) {
			t.Fatalf("ReadRange(%d, %d) mismatch", c.off, c.n)
		}
	}
	// Ranged reads must fetch fewer pages than a full read.
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	before := bp.Stats()
	if _, err := s.ReadRange(ref, 2*PageSize, 100); err != nil {
		t.Fatal(err)
	}
	if d := bp.Stats().Sub(before); d.PhysicalReads > 2 { // length header + 1 data page
		t.Fatalf("ReadRange fetched %d pages for a 100-byte range", d.PhysicalReads)
	}
	// Errors.
	if _, err := s.ReadRange(ref, len(data)-5, 10); err == nil {
		t.Fatal("ReadRange past end succeeded")
	}
	if _, err := s.ReadRange(ref, -1, 5); err == nil {
		t.Fatal("ReadRange with negative offset succeeded")
	}
	if _, err := s.ReadRange(InvalidLOBRef, 0, 1); err == nil {
		t.Fatal("ReadRange of invalid ref succeeded")
	}
}

// Property: ReadRange agrees with Read on random ranges.
func TestLOBQuickReadRange(t *testing.T) {
	bp := newTestPool(64)
	s := NewLOBStore(bp)
	rng := rand.New(rand.NewSource(23))
	data := make([]byte, 3*PageSize+17)
	rng.Read(data)
	ref, _, err := s.Write(data)
	if err != nil {
		t.Fatal(err)
	}
	f := func(offRaw, nRaw uint16) bool {
		off := int(offRaw) % len(data)
		n := int(nRaw) % (len(data) - off)
		got, err := s.ReadRange(ref, off, n)
		return err == nil && bytes.Equal(got, data[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: any byte slice survives a LOB write/read cycle.
func TestLOBQuickRoundtrip(t *testing.T) {
	bp := newTestPool(64)
	s := NewLOBStore(bp)
	f := func(data []byte) bool {
		ref, _, err := s.Write(data)
		if err != nil {
			return false
		}
		got, err := s.Read(ref)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
