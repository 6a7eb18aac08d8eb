package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	repro "repro"
	"repro/client"
)

// engineExecs sums the per-engine query counters. Each increment is one
// real engine execution — cache hits and deduplicated singleflight
// followers are deliberately excluded, which is what makes the counters
// usable as an execution oracle here.
func engineExecs(db *repro.DB) int64 {
	snap := db.Registry().Snapshot()
	total := int64(0)
	for _, eng := range []string{"array", "starjoin", "bitmap"} {
		total += snap.Counter("queries_" + eng + "_total")
	}
	return total
}

// TestServerCacheSingleflightDedup fires the same consolidation from 32
// goroutines at a cache-enabled server and asserts the engine ran
// exactly once: every response carries identical rows, and the other 31
// requests are accounted for as result-cache hits or deduplicated
// singleflight followers. Run under -race this also exercises the
// cache's concurrency paths end to end.
func TestServerCacheSingleflightDedup(t *testing.T) {
	srv, db := startServer(t, Config{MaxConcurrent: 8, QueueDepth: 1000})
	want, err := db.QueryOn(retailQuery, repro.ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	// Enable the cache only after computing the oracle, so the fleet
	// below starts against a cold cache and exactly one of the 32 runs
	// the engine.
	db.EnableQueryCache(16 << 20)
	execsBefore := engineExecs(db)

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(srv.Addr().String(), client.Config{})
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", i, err)
				return
			}
			defer conn.Close()
			res, err := conn.Query(context.Background(), retailQuery, client.Array)
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: %w", i, err)
				return
			}
			if len(res.Rows) != len(want.Rows) {
				errs <- fmt.Errorf("goroutine %d: rows = %d, want %d", i, len(res.Rows), len(want.Rows))
				return
			}
			for j, r := range res.Rows {
				w := want.Rows[j]
				if r.Sum != w.Sum || fmt.Sprint(r.Groups) != fmt.Sprint(w.Groups) {
					errs <- fmt.Errorf("goroutine %d: row %d = %+v, want %+v", i, j, r, w)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := engineExecs(db) - execsBefore; got != 1 {
		t.Fatalf("engine executed %d times for %d identical queries, want 1", got, goroutines)
	}
	snap := db.Registry().Snapshot()
	hits := snap.Counter("cache_result_hits_total")
	dedup := snap.Counter("cache_singleflight_dedup_total")
	if hits+dedup != goroutines-1 {
		t.Fatalf("hits(%d)+dedup(%d) = %d, want %d", hits, dedup, hits+dedup, goroutines-1)
	}
}

// TestServerCacheOptionWire drives the CACHE session option over the
// wire: an opted-out connection re-executes the engine on every query
// while the default stays served from the cache, and an unknown option
// (or value) earns a typed protocol error without killing the
// connection.
func TestServerCacheOptionWire(t *testing.T) {
	srv, db := startServer(t, Config{})
	db.EnableQueryCache(16 << 20)

	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Warm the cache, then verify a hit costs no engine execution.
	if _, err := conn.Query(context.Background(), retailQuery, client.Array); err != nil {
		t.Fatal(err)
	}
	base := engineExecs(db)
	if _, err := conn.Query(context.Background(), retailQuery, client.Array); err != nil {
		t.Fatal(err)
	}
	if got := engineExecs(db); got != base {
		t.Fatalf("warm query ran the engine: execs %d -> %d", base, got)
	}

	// CACHE off: every query is a real execution again.
	if err := conn.SetCache(context.Background(), false); err != nil {
		t.Fatalf("SetCache(off): %v", err)
	}
	for i := 0; i < 2; i++ {
		before := engineExecs(db)
		if _, err := conn.Query(context.Background(), retailQuery, client.Array); err != nil {
			t.Fatal(err)
		}
		if got := engineExecs(db); got != before+1 {
			t.Fatalf("opted-out query %d: execs %d -> %d, want +1", i, before, got)
		}
	}

	// Back on: served from the cache once more.
	if err := conn.SetCache(context.Background(), true); err != nil {
		t.Fatalf("SetCache(on): %v", err)
	}
	base = engineExecs(db)
	if _, err := conn.Query(context.Background(), retailQuery, client.Array); err != nil {
		t.Fatal(err)
	}
	if got := engineExecs(db); got != base {
		t.Fatalf("re-opted-in query ran the engine: execs %d -> %d", base, got)
	}

	// Unknown option and bad value: typed errors, connection survives.
	if err := conn.SetOption(context.Background(), "TURBO", "on"); !client.IsCode(err, client.CodeProtocol) {
		t.Fatalf("unknown option err = %v, want CodeProtocol", err)
	}
	if err := conn.SetOption(context.Background(), "CACHE", "sideways"); !client.IsCode(err, client.CodeProtocol) {
		t.Fatalf("bad value err = %v, want CodeProtocol", err)
	}
	if _, err := conn.Query(context.Background(), retailQuery, client.Array); err != nil {
		t.Fatalf("query after option errors: %v", err)
	}
}
