package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
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

// walkAll collects what Walk hands over.
func walkAll(s *LOBStore, ref LOBRef) ([]byte, error) {
	var out []byte
	err := s.Walk(ref, func(page []byte) error {
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

// TestWalkMatchesRead: Walk hands over exactly the bytes Read copies,
// for blobs that end mid-page, on a page boundary, past one run and past
// one directory page.
func TestWalkMatchesRead(t *testing.T) {
	bp := newTestPool(64)
	s := NewLOBStore(bp)
	for i, n := range []int{0, 1, PageSize, 3*PageSize + 7, walkRun*PageSize + 1, lobDirMaxEntries*PageSize + 5} {
		data, ref := writeBlob(t, bp, n, int64(i))
		got, err := walkAll(s, ref)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%d bytes: Walk = %d bytes, %v", n, len(got), err)
		}
		assertUnpinned(t, bp, fmt.Sprintf("%d-byte walk", n))
	}
}

// TestCorruptDirectoryCount is a regression test: ReadRange trusted the
// directory's entry count and, with 5000 entries, sliced past the page
// and panicked with the directory page still pinned.
func TestCorruptDirectoryCount(t *testing.T) {
	bp := newTestPool(16)
	s := NewLOBStore(bp)
	_, ref := writeBlob(t, bp, 3*PageSize, 1)
	patchPage(t, bp, ref.First, func(buf []byte) { PutUint32(buf, lobDirCountOff, 5000) })
	if _, err := s.ReadRange(ref, 0, 10); err == nil {
		t.Fatal("ReadRange accepted a 5000-entry directory page")
	}
	if _, err := s.Read(ref); err == nil {
		t.Fatal("Read accepted a 5000-entry directory page")
	}
	if _, err := walkAll(s, ref); err == nil {
		t.Fatal("Walk accepted a 5000-entry directory page")
	}
	assertUnpinned(t, bp, "corrupt count")
}

// TestCorruptBlobLength is a regression test: Read sized its buffer from
// the length field alone, so a length of 1<<46 was a fatal out-of-memory
// error no recover could catch.
func TestCorruptBlobLength(t *testing.T) {
	bp := newTestPool(16)
	s := NewLOBStore(bp)
	_, ref := writeBlob(t, bp, 2*PageSize, 2)
	patchPage(t, bp, ref.First, func(buf []byte) { PutUint64(buf, lobDirLenOff, 1<<46) })
	if _, err := s.Read(ref); err == nil {
		t.Fatal("Read accepted a 64 TiB blob length")
	}
	if _, err := s.ReadInto(ref, make([]byte, 0, 16)); err == nil {
		t.Fatal("ReadInto accepted a 64 TiB blob length")
	}
	if _, err := walkAll(s, ref); err == nil {
		t.Fatal("Walk accepted a 64 TiB blob length")
	}
	// A length the volume could hold but the listed pages do not cover is
	// a truncated blob, and the read stays sized by the pages listed.
	patchPage(t, bp, ref.First, func(buf []byte) { PutUint64(buf, lobDirLenOff, 5*PageSize) })
	if _, err := s.Read(ref); err == nil {
		t.Fatal("Read accepted a blob longer than its pages")
	}
	// A directory chain that loops back on itself ends in an error.
	patchPage(t, bp, ref.First, func(buf []byte) { PutUint64(buf, lobDirNextOff, uint64(ref.First)) })
	if _, err := walkAll(s, ref); err == nil {
		t.Fatal("Walk accepted a directory chain that loops")
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
			err := s.Walk(ref, func([]byte) error {
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
		for _, after := range []int{1, 3, walkRun + 2} { // reads before the fault: the directory, then data
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
		// One frame is what a copying read needs: the directory page and
		// then each data page in turn.
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

// FuzzBlobDirectory puts arbitrary bytes where a blob's first directory
// page sits, over a small volume of known pages, and reads the blob every
// way there is. Each read returns data or an error, never panics, never
// sizes a buffer past what the volume could hold, and leaves nothing
// pinned — whatever the pool size.
func FuzzBlobDirectory(f *testing.F) {
	valid := func(n int) []byte {
		bp := newTestPool(16)
		_, ref := writeBlob(f, bp, n, 6)
		buf, err := bp.FetchPage(ref.First)
		if err != nil {
			f.Fatal(err)
		}
		defer bp.Unpin(ref.First, false)
		return append([]byte(nil), buf[:lobDirEntriesOff+8*((n+PageSize-1)/PageSize)]...)
	}
	f.Add(valid(3*PageSize+5), uint8(16))
	f.Add(valid(walkRun*PageSize), uint8(3))
	crasher := valid(3 * PageSize)
	PutUint32(crasher, lobDirCountOff, 5000) // the ReadRange panic
	f.Add(crasher, uint8(16))
	crasher = valid(2 * PageSize)
	PutUint64(crasher, lobDirLenOff, 1<<46) // the out-of-memory crash
	f.Add(crasher, uint8(16))
	f.Fuzz(func(t *testing.T, dir []byte, framesRaw uint8) {
		bp := newTestPool(1 + int(framesRaw)%16)
		s := NewLOBStore(bp)
		// The volume: a blob (whose pages the fuzzed directory may list),
		// then the page the fuzzed directory goes to.
		writeBlob(t, bp, 5*PageSize, 7)
		id, buf, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		copy(buf, dir)
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
		check("Walk", got, err)
	})
}
