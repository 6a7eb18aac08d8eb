package repro

import (
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestHTAPSmoke drives the full HTAP path under load: writer goroutines
// ingest continuously, reader goroutines query continuously, and the
// background compactor folds underneath them. Run under -race in CI.
// Afterwards the database must answer exactly like a fresh database
// that replayed the same final cell states sequentially — on every
// engine.
func TestHTAPSmoke(t *testing.T) {
	dur := 2 * time.Second
	if s := os.Getenv("HTAP_SMOKE_SECONDS"); s != "" {
		if d, err := time.ParseDuration(s + "s"); err == nil {
			dur = d
		}
	}
	if testing.Short() {
		dur = 500 * time.Millisecond
	}

	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	db.EnableQueryCache(8 << 20)
	db.StartCompactor(25 * time.Millisecond)

	const writers, readers = 3, 2
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	finals := make([]map[[3]int64]IngestCell, writers)
	errCh := make(chan error, writers+readers)

	// Each writer owns one product key, so the final state is
	// independent of cross-writer interleaving: it is each writer's
	// last write per cell.
	for w := 0; w < writers; w++ {
		w := w
		finals[w] = make(map[[3]int64]IngestCell)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := int64(w) // product key owned by this writer
			for i := 0; time.Now().Before(deadline); i++ {
				s := int64(i % 8)
				tm := int64(i % 6)
				c := IngestCell{
					Keys:   []int64{p, s, tm},
					Value:  int64(w*100000 + i),
					Delete: i%7 == 0,
				}
				if err := db.InsertCells([]IngestCell{c}); err != nil {
					errCh <- err
					return
				}
				finals[w][[3]int64{p, s, tm}] = c
			}
		}()
	}
	for r := 0; r < readers; r++ {
		sql := retailQuery
		if r%2 == 1 {
			sql = timeSelectQuery
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if _, err := db.Query(sql); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent phase: %v", err)
	}
	db.StopCompactor()
	if err := db.Compact(); err != nil {
		t.Fatalf("final compact: %v", err)
	}

	// Sequential replay: a fresh database fed the final cell states in
	// one batch per writer must agree bit-for-bit.
	db2, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	loadRetail(t, db2)
	for w := 0; w < writers; w++ {
		batch := make([]IngestCell, 0, len(finals[w]))
		for _, c := range finals[w] {
			batch = append(batch, c)
		}
		if err := db2.InsertCells(batch); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range []string{retailQuery, timeSelectQuery} {
		for _, eng := range []Engine{ArrayEngine, StarJoinEngine} {
			got, err := db.QueryOn(q, eng)
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			want, err := db2.QueryOn(q, eng)
			if err != nil {
				t.Fatalf("%v replay: %v", eng, err)
			}
			if !core.RowsEqual(got.Rows, want.Rows) {
				t.Fatalf("%v diverges from sequential replay: %s", eng,
					core.DiffRows(got.Rows, want.Rows))
			}
		}
	}
	compactions := int64(0)
	for _, c := range db.MetricsSnapshot().Counters {
		if c.Name == "compactions_total" {
			compactions = c.Value
		}
	}
	if compactions == 0 {
		t.Fatal("compactor never ran during the smoke window")
	}
}

// TestWritersBesideCompaction runs generation swaps (DropCaches,
// EnableQueryCache) and dimension loads beside ingest and compaction.
// Both read the published array state while the compactor publishes.
// Had a load published a state it read before a compaction's fold and
// drain, it would pair the old base with a drained overlay and lose
// acknowledged cells. Under -race this must not race, and every
// generation must still have its array.
func TestWritersBesideCompaction(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			switch i % 3 {
			case 0:
				_ = db.DropCaches() // refuses while a query pins a page
			case 1:
				db.EnableQueryCache(int64(4+i%4) << 20)
			case 2:
				if err := db.LoadDimension("store", []DimensionRow{{Key: int64(100 + i), Attrs: []string{"cityX", "regionX"}}}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		keys := []int64{int64(i % 12), int64(i % 8), int64(i % 6)}
		want := int64(1000 + i)
		if err := db.InsertCells([]IngestCell{{Keys: keys, Value: want}}); err != nil {
			t.Error(err)
			break
		}
		if err := db.Compact(); err != nil {
			t.Error(err)
			break
		}
		if _, err := db.QueryOn(retailQuery, ArrayEngine); err != nil {
			t.Error(err)
			break
		}
		if got, ok, err := db.ArrayGet(keys); err != nil || !ok || got != want {
			t.Errorf("cell %v after compaction = %d, %v, %v; acknowledged %d", keys, got, ok, err, want)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestCompactPublishesBeforeDrain: by the time a compaction has committed
// (and so before it drains), the delta store must name the folded state.
// Publishing after the drain would let a snapshot pair the old base with
// a drained overlay.
func TestCompactPublishesBeforeDrain(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	retailIngest(t, db)
	before := db.cat.ArrayState
	db.compactTestHook = func(stage string) error {
		if state := db.ds.View().State; stage == "committed" && state != db.cat.ArrayState {
			t.Errorf("committed with state %d published, folded %d", state, db.cat.ArrayState)
		}
		return nil
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.cat.ArrayState == before {
		t.Fatal("compaction produced no new array version")
	}
}
