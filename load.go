package repro

import (
	"context"
	"fmt"

	"repro/internal/array"
	"repro/internal/exec"
)

// DimensionRow is one dimension member for LoadDimension.
type DimensionRow struct {
	Key   int64
	Attrs []string
}

// CreateStarSchema records the schema and creates empty dimension
// tables. It must be called exactly once, on a fresh database.
func (db *DB) CreateStarSchema(schema *StarSchema) error {
	return db.write(func() error { return exec.CreateSchema(db.bp, db.cat, schema) })
}

// write runs a bulk writer of the catalog under writeMu, so it never
// lands inside a compaction's fold and commit, and ends it with
// catalogChanged — also when f fails part-way, since what it wrote
// before failing (rows before a failing one, a new array state) stays.
func (db *DB) write(f func() error) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	defer db.catalogChanged()
	return f()
}

// catalogChanged publishes the array state, then retires everything
// queries derived from the catalog as it was — object handles, memoised
// statements, cached results and decoded chunks. Every writer of the
// catalog or of an object it names ends with it; it is the root
// package's only route to the swap, so a new writer has one thing to
// call and nothing to choose. Callers hold writeMu, under which the
// published state and cat.ArrayState only move together.
func (db *DB) catalogChanged() {
	db.ds.Publish(db.cat.ArrayState)
	db.ex.InvalidateHandles()
}

// LoadDimension appends members to the named dimension table.
func (db *DB) LoadDimension(name string, rows []DimensionRow) error {
	return db.write(func() error {
		for _, r := range rows {
			if err := exec.LoadDimensionRow(db.bp, db.cat, name, r.Key, r.Attrs); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadDimensionFunc streams members into the named dimension table: gen
// is called once with an emit function.
func (db *DB) LoadDimensionFunc(name string, gen func(emit func(key int64, attrs []string) error) error) error {
	return db.write(func() error {
		return gen(func(key int64, attrs []string) error {
			return exec.LoadDimensionRow(db.bp, db.cat, name, key, attrs)
		})
	})
}

// LoadFacts bulk-loads the fact table from a stream. It may be called
// once per database; facts land in the extent-based fact file of §4.4.
func (db *DB) LoadFacts(src FactSource) error {
	return db.write(func() error { return exec.LoadFacts(db.bp, db.cat, src) })
}

// FactTuple is one fact for LoadFactRows.
type FactTuple struct {
	Keys    []int64
	Measure int64
}

// sliceSource adapts a slice of tuples to FactSource.
type sliceSource struct {
	rows []FactTuple
	pos  int
}

func (s *sliceSource) Next() ([]int64, int64, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, 0, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r.Keys, r.Measure, true, nil
}

// LoadFactRows bulk-loads the fact table from a slice.
func (db *DB) LoadFactRows(rows []FactTuple) error {
	return db.LoadFacts(&sliceSource{rows: rows})
}

// BuildArray constructs the OLAP Array ADT from the loaded star schema.
// cfg zero value uses per-chunk adaptive compression with the default
// chunk shape; set Codec to force one codec store-wide.
func (db *DB) BuildArray(cfg ArrayConfig) error {
	return db.write(func() error {
		if err := exec.BuildArray(db.bp, db.cat, cfg); err != nil {
			return err
		}
		return db.refreshCodecSnapshot()
	})
}

// ArrayCellUpdate is one cell mutation for UpdateArrayCells.
type ArrayCellUpdate struct {
	Keys   []int64
	Value  int64
	Delete bool
}

// UpdateArrayCells applies cell mutations to the OLAP array copy-on-
// write: a new array version sharing all untouched chunks and dimension
// structures replaces the old one in the catalog. Call Commit to make
// the switch durable. The fact file and bitmap indexes are NOT updated —
// they describe the originally loaded facts; after updates the array is
// the authoritative store (rebuild the relational side from source to
// re-align it).
func (db *DB) UpdateArrayCells(updates []ArrayCellUpdate) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	arr, err := exec.OpenArray(db.bp, db.cat)
	if err != nil {
		return err
	}
	converted := make([]array.CellUpdate, len(updates))
	for i, u := range updates {
		converted[i] = array.CellUpdate{Keys: u.Keys, Value: u.Value, Delete: u.Delete}
	}
	next, err := arr.Update(converted)
	if err != nil {
		return err
	}
	if uint64(next.State().First) == db.cat.ArrayState {
		// Empty batch: no new array version was produced, so the catalog
		// did not change — every cached result is still valid.
		return nil
	}
	db.cat.ArrayState = uint64(next.State().First)
	defer db.catalogChanged() // the new version stands even if its stats fail
	if err := exec.RefreshArrayStats(db.bp, db.cat); err != nil {
		return err
	}
	return db.refreshCodecSnapshot()
}

// BuildBitmapIndexes builds the §4.4 join bitmap indices on every
// hierarchy attribute.
func (db *DB) BuildBitmapIndexes() error {
	return db.write(func() error { return exec.BuildBitmapIndexes(db.bp, db.cat) })
}

// Query parses, plans (Auto), and executes a consolidation query in the
// engine's SQL subset.
func (db *DB) Query(sql string) (*Result, error) {
	return db.ex.ExecuteSQLContext(context.Background(), sql, Auto)
}

// QueryOn executes a query on an explicitly chosen engine — how the
// benchmark harness compares the paper's algorithms on identical data.
func (db *DB) QueryOn(sql string, engine Engine) (*Result, error) {
	return db.ex.ExecuteSQLContext(context.Background(), sql, engine)
}

// SizeReport describes the on-disk footprint of the database objects —
// the storage comparison of §3.2/§5.5.1.
type SizeReport struct {
	// FactFileBytes is the fact file footprint (pages).
	FactFileBytes int64
	// FactTuples is the fact cardinality.
	FactTuples uint64
	// DimensionBytes is the total dimension heap footprint.
	DimensionBytes int64
	// ArrayBytes is the OLAP array footprint including B-trees and
	// metadata; 0 when no array is built.
	ArrayBytes int64
	// ArrayEncodedBytes is the raw encoded chunk payload before page
	// rounding — the number comparable to the paper's "6.5 MBytes of
	// the compressed OLAP array".
	ArrayEncodedBytes int64
	// ArrayChunks and ArrayCodec describe the chunk store; ArrayCodec is
	// "adaptive" when chunks pick their codecs individually.
	ArrayChunks int
	ArrayCodec  string
	// ArrayCodecs breaks the encoded payload down by chunk codec: how
	// many chunks each codec won and the bytes it encodes. A forced
	// store has a single entry.
	ArrayCodecs map[string]CodecUsage
}

// CodecUsage describes the chunks one codec encodes within the array.
type CodecUsage struct {
	Chunks       int64
	EncodedBytes int64
}

// Sizes computes the storage report for the loaded objects.
func (db *DB) Sizes() (*SizeReport, error) {
	if db.cat.Schema == nil {
		return nil, fmt.Errorf("repro: no schema defined")
	}
	rep := &SizeReport{}
	dims, err := exec.OpenDimensions(db.bp, db.cat)
	if err != nil {
		return nil, err
	}
	for _, dt := range dims {
		sz, err := dt.SizeBytes()
		if err != nil {
			return nil, err
		}
		rep.DimensionBytes += sz
	}
	if db.cat.FactRoot != 0 {
		ff, err := exec.OpenFactFile(db.bp, db.cat)
		if err != nil {
			return nil, err
		}
		rep.FactFileBytes = ff.SizeBytes()
		rep.FactTuples = ff.NumTuples()
	}
	if db.cat.ArrayState != 0 {
		arr, err := exec.OpenArray(db.bp, db.cat)
		if err != nil {
			return nil, err
		}
		sz, err := arr.SizeBytes()
		if err != nil {
			return nil, err
		}
		rep.ArrayBytes = sz
		rep.ArrayEncodedBytes = arr.Store().EncodedBytes()
		rep.ArrayChunks = arr.Geometry().NumChunks()
		rep.ArrayCodec = arr.Store().CodecName()
		rep.ArrayCodecs = make(map[string]CodecUsage)
		for name, st := range arr.Store().CodecStats() {
			rep.ArrayCodecs[name] = CodecUsage{Chunks: st.Chunks, EncodedBytes: st.EncodedBytes}
		}
	}
	return rep, nil
}
