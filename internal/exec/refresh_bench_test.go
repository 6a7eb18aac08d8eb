package exec

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/storage"
)

// refreshDB is a quarter of the paper's Data Set 1 — 40x40x40x25 at 10 %
// density in the same 20x20x20x10 chunks, so 24 chunks in three
// last-dimension slabs of 8 — behind an executor with the query cache on
// and an in-memory delta store: the state the htap workload keeps olapd
// in, without the wire.
type refreshDB struct {
	ex   *Executor // a session with the cache on
	off  *Executor // a CACHE off session over the same context
	ds   *delta.Store
	geom *chunk.Geometry
	rng  *rand.Rand
}

func newRefreshDB(tb testing.TB) *refreshDB {
	tb.Helper()
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), 8192)
	cat := catalog.NewCatalog()
	cfg := datagen.Config{DimSizes: []int{40, 40, 40, 25}, Density: 0.1, Seed: 11}
	data, err := datagen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := CreateSchema(bp, cat, data.Schema()); err != nil {
		tb.Fatal(err)
	}
	for dim := range cfg.DimSizes {
		name := data.Schema().Dimensions[dim].Name
		err := data.EachDimRow(dim, func(key int64, attrs []string) error {
			return LoadDimensionRow(bp, cat, name, key, attrs)
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	if err := LoadFacts(bp, cat, data.Facts()); err != nil {
		tb.Fatal(err)
	}
	if err := BuildArray(bp, cat, ArrayBuildConfig{ChunkShape: []int{20, 20, 20, 10}}); err != nil {
		tb.Fatal(err)
	}
	arr, err := OpenArray(bp, cat)
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := delta.Open("", 0)
	if err != nil {
		tb.Fatal(err)
	}
	ex := NewExecutor(bp, cat)
	ex.Context().EnableQueryCache(32 << 20)
	ex.Context().SetDeltaStore(ds)
	ex.SetParallel(1)
	off := NewSessionExecutor(ex.Context())
	off.SetCacheEnabled(false)
	off.SetParallel(1)
	return &refreshDB{ex: ex, off: off, ds: ds, geom: arr.Geometry(), rng: rand.New(rand.NewSource(11))}
}

// ingestSlab applies one batch of n upserts to the newest last-dimension
// slab, the first eight landing one in each of its 8 chunks.
func (r *refreshDB) ingestSlab(tb testing.TB, n int) {
	tb.Helper()
	cells := make([]delta.Cell, n)
	for i := range cells {
		coords := []int{r.rng.Intn(40), r.rng.Intn(40), r.rng.Intn(40), 20 + r.rng.Intn(5)}
		if i < 8 {
			coords[0], coords[1], coords[2] = i&1*20, i>>1&1*20, i>>2*20
		}
		cn, off := r.geom.Locate(coords)
		cells[i] = delta.Cell{Chunk: cn, Offset: uint32(off), Value: r.rng.Int63n(1000)}
	}
	if err := r.ds.Apply(context.Background(), cells); err != nil {
		tb.Fatal(err)
	}
}

// refreshStatements are the htap mix's shapes over refreshDB: Query 1
// (every chunk in reach), a selection of one dim0 block (12 chunks in
// reach, 4 of them in the newest slab) and a point selection inside the
// newest slab (1 chunk, so nothing of it is cold).
var refreshStatements = []struct{ name, sql string }{
	{"noselection", "select sum(volume), dim0.h01 from fact, dim0 group by h01"},
	{"broad", "select sum(volume), dim1.h11 from fact, dim0, dim1 where dim0.h02 = 'AA1' group by h11"},
	{"point", "select sum(volume), dim0.h01 from fact, dim0, dim1, dim2, dim3 where dim0.h02 = 'AA1' " +
		"and dim1.h12 = 'AA1' and dim2.h22 = 'AA1' and dim3.h32 = 'AA9' group by h01"},
}

// BenchmarkIngestRefresh is the in-repo twin of the htap claim: the
// array engine through the executor with the query cache on, one
// 100-cell batch into the newest slab between iterations, so every
// iteration is a result-cache miss that has to pick the batch up. It
// reports the time of that refresh and the array cells it visited.
func BenchmarkIngestRefresh(b *testing.B) {
	db := newRefreshDB(b)
	db.ingestSlab(b, 100)
	for _, st := range refreshStatements {
		b.Run(st.name, func(b *testing.B) {
			if _, err := db.ex.ExecuteSQLContext(context.Background(), st.sql, ArrayEngine); err != nil {
				b.Fatal(err)
			}
			var cells int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db.ingestSlab(b, 100)
				b.StartTimer()
				qr, err := db.ex.ExecuteSQLContext(context.Background(), st.sql, ArrayEngine)
				if err != nil {
					b.Fatal(err)
				}
				if qr.Cached {
					b.Fatal("served rows from before the batch")
				}
				cells += qr.Metrics.CellsScanned + qr.Metrics.Probes
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/refresh")
			b.ReportMetric(float64(cells)/float64(b.N), "cells/refresh")
		})
	}
}
