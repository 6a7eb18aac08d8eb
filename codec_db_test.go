package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
)

// TestCodecDifferential is the ci.sh codec gate: every codec mode
// (adaptive and each forced codec) must produce bit-identical results on
// every engine at parallel degrees 1 and 4. The baseline is the adaptive
// store on the array engine, sequential.
func TestCodecDifferential(t *testing.T) {
	queries := []string{retailQuery, retailSelectQuery}
	var baseline []*Result
	for _, codec := range []string{"adaptive", "chunk-offset", "dense", "lzw", "diff-seq"} {
		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		loadRetailArray(t, db, ArrayConfig{ChunkShape: []int{4, 4, 3}, Codec: codec})
		for qi, sql := range queries {
			for _, engine := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
				for _, degree := range []int{1, 4} {
					db.SetParallel(degree)
					r, err := db.QueryOn(sql, engine)
					if err != nil {
						t.Fatalf("codec %s engine %v degree %d: %v", codec, engine, degree, err)
					}
					if len(baseline) == qi {
						baseline = append(baseline, r)
						continue
					}
					if !core.RowsEqual(baseline[qi].Rows, r.Rows) {
						t.Fatalf("codec %s engine %v degree %d diverges:\n%s",
							codec, engine, degree, core.DiffRows(baseline[qi].Rows, r.Rows))
					}
				}
			}
		}
		db.Close()
	}
}

// loadScatteredRetail loads the retail schema with a fact per (product,
// store) pair at time key 0 only, and one chunk covering the whole
// 12x8x6 array. Every cell offset is a multiple of 6, so no two cells
// are adjacent: at capacity 576 (2-byte difference entries) the
// difference-sequence encoding is strictly larger than the 12-byte
// offset pairs and the adaptive builder tags the chunk "chunk-offset".
func loadScatteredRetail(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CreateStarSchema(retailSchema()); err != nil {
		t.Fatal(err)
	}
	var products, stores, times []DimensionRow
	for k := int64(0); k < 12; k++ {
		products = append(products, DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("type%d", k%4), fmt.Sprintf("cat%d", k%2)}})
	}
	for k := int64(0); k < 8; k++ {
		stores = append(stores, DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("city%d", k%4), fmt.Sprintf("region%d", k%2)}})
	}
	for k := int64(0); k < 6; k++ {
		times = append(times, DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("m%d", k%3), fmt.Sprintf("y%d", k/3)}})
	}
	for name, rows := range map[string][]DimensionRow{
		"product": products, "store": stores, "time": times,
	} {
		if err := db.LoadDimension(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	var facts []FactTuple
	for p := int64(0); p < 12; p++ {
		for s := int64(0); s < 8; s++ {
			facts = append(facts, FactTuple{Keys: []int64{p, s, 0}, Measure: p*100 + s})
		}
	}
	if err := db.LoadFactRows(facts); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildArray(ArrayConfig{ChunkShape: []int{12, 8, 6}}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionRecodesChunks drives the acceptance scenario for the
// compaction re-pick path: a sparse chunk starts on chunk-offset pairs,
// an ingest stream fills it in, and the compaction that folds the
// deltas re-tags it with the now-smaller difference-sequence codec —
// without changing any query result.
func TestCompactionRecodesChunks(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadScatteredRetail(t, db)

	tagOf := func() string {
		arr, err := exec.OpenArray(db.bp, db.cat)
		if err != nil {
			t.Fatal(err)
		}
		return arr.Store().ChunkCodecName(0)
	}
	if got := tagOf(); got != "chunk-offset" {
		t.Fatalf("sparse retail chunk tagged %q, want chunk-offset", got)
	}

	// Fill every cell through the ingest path: density 100%.
	var cells []IngestCell
	for p := int64(0); p < 12; p++ {
		for s := int64(0); s < 8; s++ {
			for tm := int64(0); tm < 6; tm++ {
				cells = append(cells, IngestCell{Keys: []int64{p, s, tm}, Value: p*1000 + s*10 + tm})
			}
		}
	}
	if err := db.InsertCells(cells); err != nil {
		t.Fatal(err)
	}

	// The overlay view before compaction is the reference answer.
	before, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := tagOf(); got != "diff-seq" {
		t.Fatalf("densified chunk tagged %q after compaction, want diff-seq", got)
	}
	after, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !core.RowsEqual(before.Rows, after.Rows) {
		t.Fatalf("compaction changed results:\n%s", core.DiffRows(before.Rows, after.Rows))
	}

	// The stats and metrics surfaces must reflect the migration.
	es := db.Stats()
	if es.ArrayCodec != "adaptive" {
		t.Fatalf("EngineStats.ArrayCodec = %q", es.ArrayCodec)
	}
	if es.ArrayCodecs["diff-seq"].Chunks != 1 || es.ArrayCodecs["chunk-offset"].Chunks != 0 {
		t.Fatalf("EngineStats.ArrayCodecs = %v", es.ArrayCodecs)
	}
	snap := db.MetricsSnapshot()
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["codec_chunks_total_diff_seq"] != 1 || gauges["codec_chunks_total_chunk_offset"] != 0 {
		t.Fatalf("codec gauges = %v", gauges)
	}
}
