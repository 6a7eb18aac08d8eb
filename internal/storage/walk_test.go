package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// writeBlob stores n random bytes drawn from seed and returns them with
// the blob's reference.
func writeBlob(t testing.TB, bp *BufferPool, n int, seed int64) ([]byte, LOBRef) {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	ref, _, err := NewLOBStore(bp).Write(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, ref
}

// walkAll collects what WalkRange hands over of the whole blob.
func walkAll(s *LOBStore, ref LOBRef) ([]byte, error) {
	n, err := s.Length(ref)
	if err != nil {
		return nil, err
	}
	var out []byte
	err = s.WalkRange(ref, 0, n, func(page []byte) error {
		out = append(out, page...)
		return nil
	})
	return out, err
}

// patchPage rewrites part of a cached page, as a corrupt volume would
// present it.
func patchPage(t testing.TB, bp *BufferPool, id PageID, patch func(buf []byte)) {
	t.Helper()
	buf, err := bp.FetchPage(id)
	if err != nil {
		t.Fatal(err)
	}
	patch(buf)
	if err := bp.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
}

func assertUnpinned(t testing.TB, bp *BufferPool, what string) {
	t.Helper()
	if n := bp.PinnedPages(); n != 0 {
		t.Fatalf("%s: %d pages left pinned", what, n)
	}
}

// TestWalkMatchesRead: a walk hands over exactly the bytes a read
// copies, for blobs and raw extents that end mid-page, on a page
// boundary and past one run.
func TestWalkMatchesRead(t *testing.T) {
	bp := newTestPool(64)
	s := NewLOBStore(bp)
	for i, n := range []int{0, 1, PageSize - lobLenSize, PageSize, 3*PageSize + 7, walkRun*PageSize + 1, 3 * walkRun * PageSize} {
		data, ref := writeBlob(t, bp, n, int64(i))
		got, err := walkAll(s, ref)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%d bytes: WalkRange = %d bytes, %v", n, len(got), err)
		}
		ref, _, err = s.WriteExtent(data)
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		err = s.WalkExtent(ref, n, func(page []byte, _ *atomic.Uint64) error {
			got = append(got, page...)
			return nil
		})
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%d bytes: WalkExtent = %d bytes, %v", n, len(got), err)
		}
		assertUnpinned(t, bp, fmt.Sprintf("%d-byte walk", n))
	}
}

// TestCorruptBlobLength is a regression test: Read sized its buffer from
// the length field alone, so a length of 1<<46 was a fatal out-of-memory
// error no recover could catch.
func TestCorruptBlobLength(t *testing.T) {
	bp := newTestPool(16)
	s := NewLOBStore(bp)
	writeBlob(t, bp, 3*PageSize, 1)
	_, ref := writeBlob(t, bp, 2*PageSize, 2)
	patchPage(t, bp, ref.First, func(buf []byte) { PutUint64(buf, 0, 1<<46) })
	if _, err := s.Read(ref); err == nil {
		t.Fatal("Read accepted a 64 TiB blob length")
	}
	if _, err := walkAll(s, ref); err == nil {
		t.Fatal("Walk accepted a 64 TiB blob length")
	}
	// A length the volume could hold, but that runs past the volume's end
	// from where the blob starts, is refused before anything is sized.
	patchPage(t, bp, ref.First, func(buf []byte) { PutUint64(buf, 0, 5*PageSize) })
	if _, err := s.Read(ref); err == nil {
		t.Fatal("Read accepted a blob running past the volume's end")
	}
	if _, err := s.ReadExtent(ref, 5*PageSize, make([]byte, 0, 16)); err == nil {
		t.Fatal("ReadExtent accepted an extent running past the volume's end")
	}
	assertUnpinned(t, bp, "corrupt length")
}

// TestWalkPinDiscipline: every exit from Walk leaves nothing pinned — a
// callback error, a disk fault inside a pinned run, and a pool too small
// to hold a run, which must still succeed one page at a time.
func TestWalkPinDiscipline(t *testing.T) {
	const pages = 2*walkRun + 3
	t.Run("callback-error", func(t *testing.T) {
		bp := newTestPool(64)
		s := NewLOBStore(bp)
		_, ref := writeBlob(t, bp, pages*PageSize, 3)
		stop := errors.New("stop")
		for _, at := range []int{0, 1, walkRun - 1, walkRun, pages - 1} {
			seen := 0
			err := s.WalkRange(ref, 0, pages*PageSize, func([]byte) error {
				if seen == at {
					return stop
				}
				seen++
				return nil
			})
			if err != stop || seen != at {
				t.Fatalf("stop at page %d: err %v after %d pages", at, err, seen)
			}
			assertUnpinned(t, bp, fmt.Sprintf("stop at page %d", at))
		}
	})
	t.Run("disk-fault-in-run", func(t *testing.T) {
		fd := newFaultDisk(NewMemDiskManager(), -1)
		bp := NewBufferPool(fd, 64)
		s := NewLOBStore(bp)
		_, ref := writeBlob(t, bp, pages*PageSize, 4)
		for _, after := range []int{1, 3, walkRun + 2} { // reads before the fault: the length header, then the rest
			if err := bp.DropAll(); err != nil {
				t.Fatal(err)
			}
			fd.mu.Lock()
			fd.failAfter = after
			fd.mu.Unlock()
			if _, err := walkAll(s, ref); !errors.Is(err, errInjected) {
				t.Fatalf("fault after %d reads: err = %v", after, err)
			}
			fd.mu.Lock()
			fd.failAfter = -1
			fd.mu.Unlock()
			assertUnpinned(t, bp, fmt.Sprintf("fault after %d reads", after))
		}
	})
	t.Run("pool-too-small", func(t *testing.T) {
		// One frame is what a copying read needs: each page in turn.
		for _, frames := range []int{1, 2, walkRun} {
			bp := newTestPool(frames)
			s := NewLOBStore(bp)
			data, ref := writeBlob(t, bp, pages*PageSize+11, 5)
			got, err := walkAll(s, ref)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%d frames: Walk = %d bytes, %v", frames, len(got), err)
			}
			if got, err := s.Read(ref); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%d frames: Read = %d bytes, %v", frames, len(got), err)
			}
			assertUnpinned(t, bp, fmt.Sprintf("%d frames", frames))
		}
	})
}

// TestWalkConcurrent runs four walkers over a pool smaller than the blobs
// they share, under eviction pressure (run it with -race): every page
// arrives intact and nothing is left pinned.
func TestWalkConcurrent(t *testing.T) {
	bp := newTestPool(4 * (walkRun + 1))
	s := NewLOBStore(bp)
	var blobs [][]byte
	var refs []LOBRef
	for i := 0; i < 6; i++ {
		data, ref := writeBlob(t, bp, (walkRun+i)*PageSize+i, int64(10+i))
		blobs, refs = append(blobs, data), append(refs, ref)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				b := (g + i) % len(refs)
				got, err := walkAll(s, refs[b])
				if err != nil || !bytes.Equal(got, blobs[b]) {
					errs <- fmt.Errorf("walker %d blob %d: %d bytes, %v", g, b, len(got), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertUnpinned(t, bp, "concurrent walks")
}

// FuzzBlobExtent puts arbitrary bytes where the header page of a
// self-describing blob sits, over a small volume of known pages, and
// reads that blob every way there is; then it reads an arbitrary (first
// page, byte length) as a chunk's raw extent. Each read returns data or
// an error, never panics, never sizes a buffer past what the volume
// could hold, and leaves nothing pinned — whatever the pool size.
func FuzzBlobExtent(f *testing.F) {
	header := func(n uint64) []byte {
		buf := make([]byte, lobLenSize)
		PutUint64(buf, 0, n)
		return buf
	}
	f.Add(header(3*PageSize+5), uint64(1), uint64(3*PageSize+5), uint8(16))
	f.Add(header(walkRun*PageSize), uint64(0), uint64(walkRun*PageSize), uint8(3))
	f.Add(header(1<<46), uint64(2), uint64(1<<46), uint8(16)) // the out-of-memory crash
	f.Add(header(PageSize), uint64(5), uint64(2*PageSize), uint8(1))
	f.Fuzz(func(t *testing.T, hdr []byte, first, length uint64, framesRaw uint8) {
		bp := newTestPool(1 + int(framesRaw)%16)
		s := NewLOBStore(bp)
		// The volume: a blob, then the header page of the fuzzed blob.
		writeBlob(t, bp, 5*PageSize, 7)
		id, buf, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		copy(buf, hdr)
		if err := bp.Unpin(id, true); err != nil {
			t.Fatal(err)
		}
		ref := LOBRef{First: id}
		limit := int(bp.disk.NumPages()) * PageSize
		check := func(op string, got []byte, err error) {
			if err == nil && cap(got) > 2*limit {
				t.Fatalf("%s: a %d-byte buffer on a %d-byte volume", op, cap(got), limit)
			}
			assertUnpinned(t, bp, op)
		}
		got, err := s.Read(ref)
		check("Read", got, err)
		got, err = s.ReadRange(ref, PageSize-3, 20)
		check("ReadRange", got, err)
		got, err = walkAll(s, ref)
		check("WalkRange", got, err)
		extent := LOBRef{First: PageID(first)}
		got, err = s.ReadExtent(extent, int(length), nil)
		check("ReadExtent", got, err)
		got = nil
		err = s.WalkExtent(extent, int(length), func(page []byte, _ *atomic.Uint64) error {
			got = append(got, page...)
			return nil
		})
		check("WalkExtent", got, err)
	})
}
