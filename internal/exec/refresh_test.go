package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRefreshReadsOnlyHotChunks pins what a result-cache miss costs the
// array plan under ingest: once a statement's cold cube is kept, a
// refresh after a batch reads the touched chunks in its reach and no
// others, says so wherever executions are described, and finds those
// chunks already decoded when another statement refreshed first. Rows
// stay those of a CACHE off session throughout.
func TestRefreshReadsOnlyHotChunks(t *testing.T) {
	db := newRefreshDB(t)
	reg := db.ex.Context().Registry()
	bg := context.Background()
	run := func(e *Executor, sql string) *QueryResult {
		t.Helper()
		qr, err := e.ExecuteSQLContext(bg, sql, ArrayEngine)
		if err != nil {
			t.Fatal(err)
		}
		return qr
	}
	q1, broad, point := refreshStatements[0].sql, refreshStatements[1].sql, refreshStatements[2].sql
	other := "select sum(volume), count(volume), dim3.h31 from fact, dim3 group by h31"

	// Nothing ingested yet: no cut, no cold cube.
	if qr := run(db.ex, q1); qr.Metrics.ColdCube != "" || qr.Metrics.ChunksRead != 24 {
		t.Fatalf("before any ingest: cold=%q chunks=%d, want an uncut run of 24 chunks", qr.Metrics.ColdCube, qr.Metrics.ChunksRead)
	}

	db.ingestSlab(t, 100)
	first := run(db.ex, q1)
	if first.Cached || first.Metrics.ColdCube != "built" || first.Metrics.HotChunks != 8 || first.Metrics.ChunksRead != 24 {
		t.Fatalf("first run after ingest: cached=%v cold=%q hot=%d chunks=%d, want a built cold cube, 8 hot, 24 read",
			first.Cached, first.Metrics.ColdCube, first.Metrics.HotChunks, first.Metrics.ChunksRead)
	}
	run(db.ex, other) // builds its own cold cube
	if qr := run(db.ex, broad); qr.Metrics.ColdCube != "built" || qr.Metrics.HotChunks != 4 || qr.Metrics.ChunksRead != 12 {
		t.Fatalf("broad selection: cold=%q hot=%d chunks=%d, want built, 4 of its 12 chunks hot",
			qr.Metrics.ColdCube, qr.Metrics.HotChunks, qr.Metrics.ChunksRead)
	}
	if qr := run(db.ex, point); qr.Metrics.ColdCube != "" || qr.Metrics.ChunksRead != 1 {
		t.Fatalf("point selection inside the slab: cold=%q chunks=%d, want the plain run of its one chunk",
			qr.Metrics.ColdCube, qr.Metrics.ChunksRead)
	}

	db.ingestSlab(t, 100)
	// The slab's cells as a reader of this snapshot sees them, counted
	// through a clone detached from the chunk cache.
	arr, err := db.ex.Context().ArrayClone()
	if err != nil {
		t.Fatal(err)
	}
	arr.Store().SetDecodedCache(nil)
	var slabCells int64
	for i := 0; i < 8; i++ {
		cn, _ := db.geom.Locate([]int{i & 1 * 20, i >> 1 & 1 * 20, i >> 2 * 20, 20})
		cells, err := arr.Store().ReadChunk(cn)
		if err != nil {
			t.Fatal(err)
		}
		slabCells += int64(len(cells))
	}
	coldHits := reg.Snapshot().Counter("cache_cold_hits_total")
	resultHits := reg.Snapshot().Counter("cache_result_hits_total")

	second := run(db.ex, q1)
	m := second.Metrics
	if second.Cached || m.ColdCube != "hit" || m.HotChunks != 8 || m.ChunksRead != 8 {
		t.Fatalf("refresh: cached=%v cold=%q hot=%d chunks=%d, want a cold hit and the 8 hot chunks read",
			second.Cached, m.ColdCube, m.HotChunks, m.ChunksRead)
	}
	if m.CellsScanned != slabCells {
		t.Fatalf("refresh scanned %d cells, the slab holds %d", m.CellsScanned, slabCells)
	}
	if want := run(db.off, q1); !core.RowsEqual(second.Rows, want.Rows) {
		t.Fatalf("refresh != CACHE off: %s", core.DiffRows(second.Rows, want.Rows))
	} else if want.Metrics.ColdCube != "" || want.Metrics.ChunksRead != 24 {
		t.Fatalf("a CACHE off run was cut: cold=%q chunks=%d", want.Metrics.ColdCube, want.Metrics.ChunksRead)
	}

	// A second statement refreshed after the same batch decodes nothing.
	hitsBefore := reg.Snapshot().Counter("cache_chunk_hits_total")
	if qr := run(db.ex, other); qr.Metrics.ColdCube != "hit" || qr.Metrics.ChunksRead != 8 {
		t.Fatalf("second statement: cold=%q chunks=%d", qr.Metrics.ColdCube, qr.Metrics.ChunksRead)
	}
	if n := reg.Snapshot().Counter("cache_chunk_hits_total") - hitsBefore; n != 8 {
		t.Fatalf("the second statement refreshed after the same batch found %d of the 8 hot chunks decoded", n)
	}
	snap := reg.Snapshot()
	if n := snap.Counter("cache_cold_hits_total") - coldHits; n != 2 {
		t.Fatalf("cache_cold_hits_total grew by %d over two refreshes", n)
	}
	if n := snap.Counter("cache_result_hits_total") - resultHits; n != 0 {
		t.Fatalf("cold-cube hits were counted as %d result hits", n)
	}
	if b := snap.Gauge("cache_cold_bytes"); b <= 0 || b > snap.Gauge("cache_result_bytes") {
		t.Fatalf("cache_cold_bytes = %v of cache_result_bytes = %v", b, snap.Gauge("cache_result_bytes"))
	}

	// The execution says so: span, flight-recorder profile, EXPLAIN ANALYZE.
	db.ingestSlab(t, 100)
	db.ex.SetTrace(true)
	traced := run(db.ex, q1)
	if tree := traced.Trace.String(); !strings.Contains(tree, "cold=hit") || !strings.Contains(tree, "hot_chunks=8") {
		t.Fatalf("execute span does not report the cut:\n%s", tree)
	}
	if p := db.ex.Context().FlightRecorder().Profile(traced.QueryID); p == nil || p.Cold != "hit" || p.HotChunks != 8 {
		t.Fatalf("flight-recorder profile = %+v, want cold=hit hot_chunks=8", p)
	}
	db.ingestSlab(t, 100)
	analyzed := run(db.ex, "explain analyze "+q1)
	if text := analyzed.Explanation.String(); !strings.Contains(text, "chunks=8 cold=hit hot_chunks=8") {
		t.Fatalf("EXPLAIN ANALYZE does not report the cut:\n%s", text)
	}
}
