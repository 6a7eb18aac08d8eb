package exec

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/storage"
)

// swapStatements is a cached statement set that crosses every plan: the
// array scan (cold cubes under ingest), the array probe (decoded chunks),
// and the two relational plans (overlay fold).
var swapStatements = []struct {
	sql    string
	engine Engine
}{
	{testQ1, ArrayEngine},
	{testQ2, ArrayEngine},
	{testQ2, StarJoinEngine},
	{testQ2, BitmapEngine},
}

// TestGenerationSwap: replacing the generation is the whole invalidation
// story. (i) What a holder of the old generation deposits after a swap is
// in no cache a fresh query probes. (iii) The invalidated counters grow by
// exactly the entries each kind of swap drops. (ii) Readers looping the
// statement set while a writer swaps, ingests and compacts only ever see
// rows of a state they could have observed.
func TestGenerationSwap(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, true)
	e := NewExecutor(bp, cat)
	e.SetParallel(1)
	c := e.Context()
	ds, err := delta.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeltaStore(ds)
	c.EnableQueryCache(8 << 20)
	bg := context.Background()
	run := func(t *testing.T, ex *Executor, sql string, engine Engine) *QueryResult {
		t.Helper()
		qr, err := ex.ExecuteSQLContext(bg, sql, engine)
		if err != nil {
			t.Fatal(err)
		}
		return qr
	}
	warm := func(t *testing.T) {
		t.Helper()
		for _, s := range swapStatements {
			run(t, e, s.sql, s.engine)
			if !run(t, e, s.sql, s.engine).Cached {
				t.Fatalf("%v statement not cached on its second run", s.engine)
			}
		}
	}

	t.Run("old holder", func(t *testing.T) {
		warm(t)
		old := c.gen.Load()
		st, _, err := e.statement(old, testQ2, ArrayEngine)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := old.resCache.Get(st.fingerprint)
		if !ok {
			t.Fatal("the warm statement's rows are not under its fingerprint")
		}
		cr := v.(*cachedResult)

		c.InvalidateHandles()
		// An execution that began before the swap finishes now.
		old.resCache.Put(st.fingerprint, cr, resultBytes(cr.rows), 1)
		old.resCache.AddImage(st.fingerprint, cr, 64)
		old.resCache.PutCold(st.fingerprint+"|cold", &core.Result{}, 64, 1)
		old.chunkCache.PutDecoded(0, 0, []chunk.Cell{{Offset: 0, Value: 1}})

		cur := c.gen.Load()
		if cur == old || cur.id != old.id+1 {
			t.Fatalf("generation %d after %d", cur.id, old.id)
		}
		if n, m := cur.resCache.Len(), cur.chunkCache.Len(); n != 0 || m != 0 {
			t.Fatalf("the new generation's caches hold %d results, %d chunks", n, m)
		}
		qr := run(t, e, testQ2, ArrayEngine)
		if qr.Cached || qr.entry == cr {
			t.Fatalf("a fresh query was served the old generation's entry (cached=%v)", qr.Cached)
		}
		if !core.RowsEqual(qr.Rows, cr.rows) {
			t.Fatalf("fresh rows differ: %s", core.DiffRows(qr.Rows, cr.rows))
		}
		if v, ok := cur.resCache.Get(st.fingerprint); !ok || v == any(cr) {
			t.Fatal("the fresh run's rows are not what the new generation holds")
		}
		if _, ok := cur.resCache.GetCold(st.fingerprint + "|cold"); ok {
			t.Fatal("the old holder's cold cube is reachable")
		}
	})

	t.Run("counters", func(t *testing.T) {
		counter := func(name string) int64 { return c.Registry().Snapshot().Counter(name) }
		swaps := map[string]func(){
			"InvalidateHandles": c.InvalidateHandles,
			"DropCaches": func() {
				if err := c.DropCaches(); err != nil {
					t.Fatal(err)
				}
			},
			"EnableQueryCache": func() { c.EnableQueryCache(6 << 20) },
		}
		for name, swap := range swaps {
			warm(t)
			g := c.gen.Load()
			results, chunks := int64(g.resCache.Len()), int64(g.chunkCache.Len())
			if results == 0 || chunks == 0 {
				t.Fatalf("%s: nothing to drop: %d results, %d chunks", name, results, chunks)
			}
			r0, c0 := counter("cache_result_invalidated_total"), counter("cache_chunk_invalidated_total")
			swap()
			if dr, dc := counter("cache_result_invalidated_total")-r0, counter("cache_chunk_invalidated_total")-c0; dr != results || dc != chunks {
				t.Fatalf("%s: invalidated grew by %d results, %d chunks; the swap dropped %d, %d", name, dr, dc, results, chunks)
			}
			if c.gen.Load().id != g.id+1 {
				t.Fatalf("%s: generation %d after %d", name, c.gen.Load().id, g.id)
			}
		}
	})

	t.Run("readers and a writer", func(t *testing.T) {
		// The two states: state 1 raises the first cell of every chunk by
		// 1000 through the delta store, state 0 puts the base value back.
		arr, view, err := c.Array()
		if err != nil {
			t.Fatal(err)
		}
		r := arr.Store().Reader(view, nil)
		var batch [2][]delta.Cell
		for cn := 0; cn < arr.Geometry().NumChunks(); cn++ {
			cells, err := r.ReadChunk(cn)
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) > 0 {
				batch[0] = append(batch[0], delta.Cell{Chunk: cn, Offset: cells[0].Offset, Value: cells[0].Value})
				batch[1] = append(batch[1], delta.Cell{Chunk: cn, Offset: cells[0].Offset, Value: cells[0].Value + 1000})
			}
		}
		off := NewSessionExecutor(c)
		off.SetCacheEnabled(false)
		off.SetParallel(1)
		var want [2][][]core.Row
		for _, state := range []int{1, 0} {
			if err := ds.Apply(bg, batch[state]); err != nil {
				t.Fatal(err)
			}
			for _, s := range swapStatements {
				want[state] = append(want[state], run(t, off, s.sql, s.engine).Rows)
			}
		}
		if core.RowsEqual(want[0][0], want[1][0]) {
			t.Fatal("the two states answer alike: the check below would be vacuous")
		}
		// seq is odd while an ingest batch is landing; seq/2's parity is the
		// state once it is even again.
		var seq, replies, hits atomic.Int64
		flip := func() (state int) {
			state = int(seq.Add(1)+1) / 2 % 2
			if err := ds.Apply(bg, batch[state]); err != nil {
				t.Error(err)
			}
			seq.Add(1)
			return state
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				se := NewSessionExecutor(c)
				se.SetParallel(1 + 3*(r/2)) // two readers at degree 1, two at 4
				for n := r; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					i := n % len(swapStatements)
					before := seq.Load()
					qr, err := se.ExecuteSQLContext(bg, swapStatements[i].sql, swapStatements[i].engine)
					after := seq.Load()
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					replies.Add(1)
					if qr.Cached {
						hits.Add(1)
					}
					ok0, ok1 := core.RowsEqual(qr.Rows, want[0][i]), core.RowsEqual(qr.Rows, want[1][i])
					if before == after && before%2 == 0 { // no batch landed meanwhile: one state
						ok0, ok1 = ok0 && before/2%2 == 0, ok1 && before/2%2 == 1
					}
					if !ok0 && !ok1 {
						t.Errorf("reader %d, statement %d (cached=%v, seq %d..%d): rows of no state it could observe", r, i, qr.Cached, before, after)
						return
					}
				}
			}(r)
		}
		// The writer waits for a reply after each op: on a busy box its ops
		// and runs could otherwise all finish before any reader is scheduled.
		paced := func(start int64) bool {
			for deadline := time.Now().Add(10 * time.Second); replies.Load() <= start; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					return false
				}
			}
			return true
		}
		for op := 0; op < 60; op++ {
			start := replies.Load()
			switch op % 6 {
			case 0:
				c.InvalidateHandles()
			case 1:
				_ = c.DropCaches() // refuses while a reader pins a page, after the swap
			case 2:
				c.EnableQueryCache(int64(4+op%4) << 20)
			case 3:
				flip()
			case 4:
				if err := compactDeltas(bp, ds); err != nil {
					t.Error(err)
				}
			case 5:
				// A reader's begin, then "invalidate, ingest, compact", then
				// its view and run, all under the generation it began with.
				g := c.gen.Load()
				c.InvalidateHandles()
				state := flip()
				if err := compactDeltas(bp, ds); err != nil {
					t.Error(err)
				}
				for i, s := range swapStatements[:2] { // the array scan and probe
					st, _, err := off.statement(g, s.sql, s.engine)
					if err != nil {
						t.Error(err)
						continue
					}
					prof, tr, _ := off.beginQuery(bg, s.sql)
					qr, err := off.run(bg, prof, tr, tr.Root.Child("plan"), st, g, bp.Stats())
					if err != nil {
						t.Error(err)
					} else if !core.RowsEqual(qr.Rows, want[state][i]) {
						t.Errorf("op %d, statement %d under generation %d: rows of no state it could observe", op, i, g.id)
					}
				}
			}
			for _, s := range swapStatements[:2] { // let the readers get somewhere
				run(t, off, s.sql, s.engine)
			}
			if !paced(start) {
				close(stop)
				wg.Wait()
				t.Fatalf("writer op %d: no reader replied within 10s (%d replies, %d of them cached)", op, replies.Load(), hits.Load())
			}
		}
		close(stop)
		wg.Wait()
		if t.Failed() {
			return
		}
		if n, h := replies.Load(), hits.Load(); n < 50 || h == 0 || h == n {
			t.Fatalf("%d replies checked, %d of them cached: want both kinds, and at least one reply per writer op", n, h)
		}

		// Quiesced: every (statement, degree) runs once more, after which
		// the current generation holds one row set per statement and at most
		// one cold cube per array statement — nothing from before a swap and
		// nothing superseded.
		for _, deg := range []int{1, 4} {
			se := NewSessionExecutor(c)
			se.SetParallel(deg)
			for i, s := range swapStatements {
				if qr := run(t, se, s.sql, s.engine); !core.RowsEqual(qr.Rows, want[seq.Load()/2%2][i]) {
					t.Fatalf("after quiesce, statement %d at degree %d: %s", i, deg, core.DiffRows(qr.Rows, want[seq.Load()/2%2][i]))
				}
			}
		}
		g := c.gen.Load()
		rows := 0
		for _, s := range swapStatements {
			st, _, err := e.statement(g, s.sql, s.engine)
			if err != nil {
				t.Fatal(err)
			}
			view := c.ingestView(g, st.reach)
			if _, ok := g.resCache.Get(st.fingerprint + view.keySuffix("|cv", true)); ok {
				rows++
			}
		}
		if n := g.resCache.Len(); rows != len(swapStatements) || n > rows+2 {
			t.Fatalf("current generation: %d of %d statements' rows cached, %d entries in all (want at most 2 cold cubes beside the rows)",
				rows, len(swapStatements), n)
		}
	})
}

// compactDeltas folds ds's overlay into the master of its view's state
// and publishes the fold before it drains, as DB.Compact does.
func compactDeltas(bp *storage.BufferPool, ds *delta.Store) error {
	v := ds.View()
	if len(v.Overlay) == 0 {
		return nil
	}
	base, err := openArray(bp, v.State)
	if err != nil {
		return err
	}
	next, err := base.ApplyChunkChanges(v.Overlay)
	if err != nil {
		return err
	}
	ds.Publish(uint64(next.State().First))
	return ds.Drain(v.Versions)
}

// TestOldGenerationSeesCompactedCells: a query that began before a
// catalog change and takes its view after an ingest and a compaction
// reads the compacted cell. Its generation's master was opened at the
// old state, so the view must name the state it pairs its overlay with;
// the old master under the drained overlay would lose the cell.
func TestOldGenerationSeesCompactedCells(t *testing.T) {
	bp, cat, _ := buildTestDB(t, true, false)
	c := NewExecContext(bp, cat)
	ds, err := delta.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeltaStore(ds)

	// The old generation, with its master opened at the state it began at.
	old := c.gen.Load()
	arr, view, err := c.Array()
	if err != nil {
		t.Fatal(err)
	}
	r := arr.Store().Reader(view, nil)
	cn, cell := -1, chunk.Cell{}
	for n := 0; n < arr.Geometry().NumChunks() && cn < 0; n++ {
		cells, err := r.ReadChunk(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) > 0 {
			cn, cell = n, cells[0]
		}
	}
	if cn < 0 {
		t.Fatal("the test array holds no cell")
	}

	c.InvalidateHandles()
	if err := ds.Apply(context.Background(), []delta.Cell{{Chunk: cn, Offset: cell.Offset, Value: cell.Value + 1000}}); err != nil {
		t.Fatal(err)
	}
	if err := compactDeltas(bp, ds); err != nil {
		t.Fatal(err)
	}
	if st := ds.Stats(); st.Cells != 0 {
		t.Fatalf("%d overlay cells after the compaction: it drained nothing", st.Cells)
	}

	v := c.ingestView(old, nil)
	arr, cv, err := v.array(c)
	if err != nil {
		t.Fatal(err)
	}
	r = arr.Store().Reader(cv, nil)
	cells, err := r.ReadChunk(cn)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range cells {
		if got.Offset == cell.Offset {
			if got.Value != cell.Value+1000 {
				t.Fatalf("chunk %d offset %d reads %d under the old generation; %d was acknowledged and compacted",
					cn, cell.Offset, got.Value, cell.Value+1000)
			}
			return
		}
	}
	t.Fatalf("chunk %d offset %d is missing under the old generation", cn, cell.Offset)
}
