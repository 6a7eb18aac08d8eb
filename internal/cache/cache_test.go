package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/obs"
)

func TestResultCacheRoundTrip(t *testing.T) {
	c := NewResultCache(1<<20, obs.NewRegistry())
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", "v", 100, 10)
	v, ok := c.Get("k")
	if !ok || v.(string) != "v" {
		t.Fatalf("Get = %v, %v; want v, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResultCacheEpochInvalidation: the cache holds no epoch. A new one
// means the executor retires this cache for a fresh one (exec's
// TestGenerationSwap); what the cache owes it is Clear — every entry gone
// and counted as invalidated, the cache usable by whoever still holds it.
func TestResultCacheEpochInvalidation(t *testing.T) {
	c := NewResultCache(1<<20, obs.NewRegistry())
	c.Put("k", "v", 100, 10)
	c.PutCold("cube", "c", 60, 10)
	c.Clear()
	if _, ok := c.Get("k"); ok {
		t.Fatal("an entry survived Clear")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("after Clear: len = %d, bytes = %d", c.Len(), c.Bytes())
	}
	if st := c.Stats(); st.Invalidated != 2 {
		t.Fatalf("invalidated = %d, want 2", st.Invalidated)
	}
	// A reader still finishing against the retired cache stores and finds
	// its own result there.
	c.Put("k", "v2", 100, 10)
	if v, ok := c.Get("k"); !ok || v.(string) != "v2" {
		t.Fatalf("re-populated entry not served: %v, %v", v, ok)
	}
}

func TestResultCacheCostAwareEviction(t *testing.T) {
	// Five 200-byte entries fill the cache exactly; "cheap" has by far
	// the lowest I/O-saved weight, so it is the eviction victim even
	// though it is not the LRU tail.
	c := NewResultCache(1000, obs.NewRegistry())
	c.Put("cheap", 0, 200, 1)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("costly%d", i), 0, 200, 500)
	}
	c.Put("new", 0, 200, 500)
	if _, ok := c.Get("cheap"); ok {
		t.Fatal("low-density entry survived eviction")
	}
	for i := 0; i < 4; i++ {
		if _, ok := c.Get(fmt.Sprintf("costly%d", i)); !ok {
			t.Fatalf("high-density entry costly%d evicted", i)
		}
	}
	if _, ok := c.Get("new"); !ok {
		t.Fatal("newly inserted entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestResultCacheOversizeSkipped(t *testing.T) {
	c := NewResultCache(1000, obs.NewRegistry())
	c.Put("big", 0, 300, 10) // > maxBytes/4
	if c.Len() != 0 {
		t.Fatal("oversize entry cached")
	}
}

// TestResultCacheImageAccounting: an image is charged to the entry that
// holds its value, counts against the budget, leaves with the entry, and
// is not charged to an entry that meanwhile holds another value.
func TestResultCacheImageAccounting(t *testing.T) {
	c := NewResultCache(1000, obs.NewRegistry())
	a, b := new(int), new(int)
	if !c.Put("a", a, 200, 1) || !c.Put("b", b, 200, 1) {
		t.Fatal("Put refused an entry within budget")
	}
	c.AddImage("a", a, 300)
	if c.Bytes() != 700 || c.ImageBytes() != 300 {
		t.Fatalf("after one image: bytes %d, image bytes %d", c.Bytes(), c.ImageBytes())
	}
	c.AddImage("a", b, 50)       // "a" holds another value
	c.AddImage("missing", a, 50) // no such entry
	if c.Bytes() != 700 || c.ImageBytes() != 300 {
		t.Fatalf("an image was charged to the wrong entry: bytes %d, image bytes %d", c.Bytes(), c.ImageBytes())
	}
	// b's image takes the cache over budget: a, least recently used, goes
	// and takes its image with it.
	c.AddImage("b", b, 400)
	if _, ok := c.Get("a"); ok || c.Bytes() != 600 || c.ImageBytes() != 400 {
		t.Fatalf("after the evicting image: bytes %d, image bytes %d, len %d", c.Bytes(), c.ImageBytes(), c.Len())
	}
	c.Put("b", a, 100, 1) // replacing the value drops the old image
	if c.Bytes() != 100 || c.ImageBytes() != 0 {
		t.Fatalf("after replacing b: bytes %d, image bytes %d", c.Bytes(), c.ImageBytes())
	}
	c.AddImage("b", a, 10)
	c.Clear()
	if c.Bytes() != 0 || c.ImageBytes() != 0 {
		t.Fatalf("after Clear: bytes %d, image bytes %d", c.Bytes(), c.ImageBytes())
	}
}

// TestChunkCacheEpochAndLRU: as for the result cache, an epoch change is
// a Clear by the executor; within one cache, the byte-bounded LRU.
func TestChunkCacheEpochAndLRU(t *testing.T) {
	c := NewChunkCache(cellBytes*10, obs.NewRegistry())
	cells := []chunk.Cell{{Offset: 0, Value: 42}}
	c.PutDecoded(7, 0, cells)
	if got, ok := c.GetDecoded(7, 0); !ok || got[0].Value != 42 {
		t.Fatalf("GetDecoded = %v, %v", got, ok)
	}
	c.Clear()
	if _, ok := c.GetDecoded(7, 0); ok {
		t.Fatal("a chunk survived Clear")
	}
	if st := c.Stats(); st.Invalidated != 1 || st.Bytes != 0 {
		t.Fatalf("after Clear: invalidated = %d, bytes = %d; want 1, 0", st.Invalidated, st.Bytes)
	}
	// LRU eviction under the byte bound: 10 one-cell chunks fit, the
	// 11th evicts the least recently used.
	for i := 0; i < 11; i++ {
		c.PutDecoded(i, 0, cells)
	}
	if _, ok := c.GetDecoded(0, 0); ok {
		t.Fatal("LRU chunk 0 survived")
	}
	if _, ok := c.GetDecoded(10, 0); !ok {
		t.Fatal("most recent chunk evicted")
	}
}

// TestChunkCacheOlderViewLeavesNewerEntry: two readers one ingest batch
// apart share a hot chunk. A chunk's version only grows, so the reader
// on the older snapshot must miss without evicting the entry every
// current reader wants, and must not install its stale decode over it.
func TestChunkCacheOlderViewLeavesNewerEntry(t *testing.T) {
	c := NewChunkCache(cellBytes*100, obs.NewRegistry())
	const older, newer = 3, 4
	stale := []chunk.Cell{{Offset: 0, Value: 3}}
	fresh := []chunk.Cell{{Offset: 0, Value: 4}}
	c.PutDecoded(7, newer, fresh)
	for i := 0; i < 5; i++ {
		// What a reader does on a miss: decode and offer the cells.
		if got, ok := c.GetDecoded(7, older); ok {
			t.Fatalf("round %d: the older view was served version-4 cells %v", i, got)
		}
		c.PutDecoded(7, older, stale)
		if got, ok := c.GetDecoded(7, newer); !ok || got[0].Value != 4 {
			t.Fatalf("round %d: the newer view got %v, %v after an older view probed; want its own cells", i, got, ok)
		}
	}
	if st := c.Stats(); st.Hits != 5 || c.Len() != 1 {
		t.Fatalf("hits = %d, entries = %d; want 5 hits on the one entry", st.Hits, c.Len())
	}
	// A newer version still supersedes: the first reader past the next
	// batch drops the entry and installs its own.
	if _, ok := c.GetDecoded(7, 5); ok {
		t.Fatal("a version-4 entry was served to a version-5 reader")
	}
	if c.Len() != 0 {
		t.Fatal("the superseded entry stayed")
	}
}

// TestResultCacheColdEntries: cold cubes share the budget and the LRU
// with row sets but are counted apart — probes in cache_cold_*, bytes in
// ColdBytes — so result hits keep meaning "rows served with no run".
func TestResultCacheColdEntries(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewResultCache(1000, reg)
	c.Put("rows", "r", 100, 1)
	if _, ok := c.GetCold("cube"); ok {
		t.Fatal("cold hit on an empty key")
	}
	if !c.PutCold("cube", "c", 60, 1) {
		t.Fatal("PutCold refused a small cube")
	}
	if v, ok := c.GetCold("cube"); !ok || v != "c" {
		t.Fatalf("GetCold = %v, %v", v, ok)
	}
	snap := reg.Snapshot()
	if h, m := snap.Counter("cache_cold_hits_total"), snap.Counter("cache_cold_misses_total"); h != 1 || m != 1 {
		t.Fatalf("cold hits/misses = %d/%d, want 1/1", h, m)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("cold probes leaked into the result counters: %+v", st)
	}
	if c.Bytes() != 160 || c.ColdBytes() != 60 {
		t.Fatalf("bytes = %d (cold %d), want 160 (60)", c.Bytes(), c.ColdBytes())
	}

	// ColdBytes is a running counter; it must equal a walk over the
	// entries after everything that moves bytes.
	check := func(when string) {
		t.Helper()
		var walk int64
		for el := c.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*entry); e.cold {
				walk += e.bytes
			}
		}
		if got := c.ColdBytes(); got != walk {
			t.Fatalf("%s: ColdBytes = %d, the entries hold %d", when, got, walk)
		}
	}
	check("after put")
	c.PutCold("cube", "c2", 90, 1) // replace: the old 60 leave with it
	check("after replace")
	if c.ColdBytes() != 90 {
		t.Fatalf("after replace: ColdBytes = %d, want 90", c.ColdBytes())
	}
	c.PutCold("cube2", "d", 200, 0.5)
	c.Remove("cube")
	check("after Remove")
	// Evict: 240-byte row sets overflow the 1000-byte budget, and the cube
	// saves the least I/O per byte.
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("more%d", i), "r", 240, 1)
	}
	check("after eviction")
	if c.ColdBytes() != 0 {
		t.Fatalf("after eviction: ColdBytes = %d, want 0 (evictions %d)", c.ColdBytes(), c.Stats().Evictions)
	}
	c.PutCold("cube3", "e", 50, 1)
	c.Clear()
	check("after Clear")
	if c.ColdBytes() != 0 || c.Bytes() != 0 {
		t.Fatalf("after Clear: bytes = %d (cold %d), want 0 (0)", c.Bytes(), c.ColdBytes())
	}
}

func TestSingleflightDedup(t *testing.T) {
	var g Group
	var execs atomic.Int64
	release := make(chan struct{})
	const n = 16

	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func() (any, error) {
				execs.Add(1)
				<-release
				return 99, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if v.(int) != 99 {
				t.Errorf("Do = %v, want 99", v)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the waiters pile onto the leader's flight, then release it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("shared count = %d, want %d", got, n-1)
	}
}

func TestSingleflightLeaderCancelDoesNotPoison(t *testing.T) {
	var g Group
	leaderIn := make(chan struct{})
	releaseLeader := make(chan struct{})

	go func() {
		g.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			<-releaseLeader
			return nil, context.Canceled // leader's client went away mid-run
		})
	}()
	<-leaderIn

	done := make(chan struct{})
	go func() {
		defer close(done)
		// The waiter must not inherit the leader's cancellation: it
		// retries as the new leader and succeeds.
		v, _, err := g.Do(context.Background(), "k", func() (any, error) { return 7, nil })
		if err != nil {
			t.Errorf("waiter err = %v", err)
			return
		}
		if v.(int) != 7 {
			t.Errorf("waiter v = %v, want 7", v)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(releaseLeader)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed after leader cancellation")
	}
}

func TestSingleflightWaiterCancel(t *testing.T) {
	var g Group
	leaderIn := make(chan struct{})
	releaseLeader := make(chan struct{})
	defer close(releaseLeader)

	go func() {
		g.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			<-releaseLeader
			return 1, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func() (any, error) { return 2, nil })
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
}

func TestSharedLeaderErrorIsShared(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	go func() {
		g.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			<-release
			return nil, boom
		})
	}()
	<-leaderIn

	errCh := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(context.Background(), "k", func() (any, error) {
			t.Error("waiter re-executed fn despite shared non-context error")
			return nil, nil
		})
		if !shared {
			t.Error("waiter not marked shared")
		}
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case err := <-errCh:
		if !errors.Is(err, boom) {
			t.Fatalf("waiter err = %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not return")
	}
}
