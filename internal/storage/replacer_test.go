package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The subtests below are named for the pool's one replacement policy.

// Pinned pages must never be victims, even when every other frame has
// been evicted many times over.
func TestReplacerPinSafety(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		bp := NewBufferPool(NewMemDiskManager(), 4)
		// Pin three pages and write a marker into each.
		var pinned []PageID
		for i := 0; i < 3; i++ {
			id, buf, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			buf[0] = byte(0xC0 + i)
			pinned = append(pinned, id)
		}
		// Churn many pages through the single remaining frame.
		for i := 0; i < 32; i++ {
			id, _, err := bp.NewPage()
			if err != nil {
				t.Fatalf("churn %d: %v", i, err)
			}
			if err := bp.Unpin(id, true); err != nil {
				t.Fatal(err)
			}
		}
		// With all frames pinned, the pool must refuse, not evict.
		for i := 0; i < 1; i++ {
			id, _, err := bp.NewPage() // occupies the last frame
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := bp.NewPage(); !errors.Is(err, ErrBufferPoolFull) {
				t.Fatalf("full pool: err = %v, want ErrBufferPoolFull", err)
			}
			if err := bp.Unpin(id, false); err != nil {
				t.Fatal(err)
			}
		}
		// The pinned pages kept their frames and contents throughout.
		for i, id := range pinned {
			buf, err := bp.FetchPage(id)
			if err != nil {
				t.Fatal(err)
			}
			if buf[0] != byte(0xC0+i) {
				t.Fatalf("pinned page %v lost its contents: %#x", id, buf[0])
			}
			if err := bp.Unpin(id, false); err != nil { // fetch pin
				t.Fatal(err)
			}
			if err := bp.Unpin(id, false); err != nil { // original pin
				t.Fatal(err)
			}
		}
		if n := bp.PinnedPages(); n != 0 {
			t.Fatalf("%d pages still pinned", n)
		}
	})
}

// Concurrent fetch/unpin stress, meant to run under -race: four
// goroutines hammer a pool smaller than the page set, so the replacement
// bookkeeping runs under real eviction pressure.
func TestReplacerConcurrentStress(t *testing.T) {
	const (
		goroutines = 4
		pages      = 48
		frames     = 16
		iters      = 400
	)
	t.Run("lru", func(t *testing.T) {
		bp := NewBufferPool(NewMemDiskManager(), frames)
		ids := make([]PageID, pages)
		for i := range ids {
			id, buf, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			buf[0], buf[1] = byte(i), byte(i>>8)
			if err := bp.Unpin(id, true); err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < iters; i++ {
					n := rng.Intn(pages)
					buf, err := bp.FetchPage(ids[n])
					if err != nil {
						if errors.Is(err, ErrBufferPoolFull) {
							continue // transient: all frames pinned by peers
						}
						errCh <- err
						return
					}
					if buf[0] != byte(n) || buf[1] != byte(n>>8) {
						errCh <- fmt.Errorf("page %d corrupt: %#x %#x", n, buf[0], buf[1])
						return
					}
					if err := bp.Unpin(ids[n], false); err != nil {
						errCh <- err
						return
					}
				}
			}(int64(g) + 7)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		if n := bp.PinnedPages(); n != 0 {
			t.Fatalf("%d pages still pinned after stress", n)
		}
	})
}

// A victim whose write-back failed must stay the most evictable frame,
// so the pool retries it first once the fault clears, and must not be
// lost track of.
func TestReplacerRestore(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		fd := newFaultDisk(NewMemDiskManager(), -1)
		bp := NewBufferPool(fd, 2)
		a, _, _ := bp.NewPage()
		bp.Unpin(a, true)
		b, _, _ := bp.NewPage()
		bp.Unpin(b, true)
		setFault := func(after int) {
			fd.mu.Lock()
			fd.failAfter = after
			fd.mu.Unlock()
		}
		setFault(1) // the third page's allocation succeeds, a's write-back fails
		if _, _, err := bp.NewPage(); !errors.Is(err, errInjected) {
			t.Fatalf("eviction fault = %v", err)
		}
		setFault(-1)
		c, _, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.mu.Lock()
		_, aCached := bp.table[a]
		_, bCached := bp.table[b]
		bp.mu.Unlock()
		if aCached || !bCached {
			t.Fatalf("after the retry: a cached=%v, b cached=%v; want a, the failed victim, evicted first", aCached, bCached)
		}
		bp.Unpin(c, false)
		// Both frames are still in play: a comes back with what was
		// written back, and nothing is left pinned.
		if _, err := bp.FetchPage(a); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(a, false)
		if n := bp.PinnedPages(); n != 0 || bp.lruLen != 2 {
			t.Fatalf("%d pages pinned, %d frames evictable; want 0 and 2", n, bp.lruLen)
		}
	})
}
