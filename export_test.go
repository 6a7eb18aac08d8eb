package repro

import (
	"repro/internal/array"
	"repro/internal/chunk"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/storage"
)

// The seams the simulation (sim_test.go, package repro_test) drives a
// database through: the disk under it, the compaction stages, a crash,
// held views and the mark pass.

// PoisonDisk is a volume that poisons the pages the pool frees and fails
// every read of them until they are written again.
type PoisonDisk = poisonDisk

// NewPoisonDisk wraps inner in a PoisonDisk.
func NewPoisonDisk(inner storage.DiskManager) *PoisonDisk {
	return &poisonDisk{DiskManager: inner, freed: make(map[storage.PageID]bool)}
}

// Freed reports whether id is freed and unwritten since.
func (d *poisonDisk) Freed(id storage.PageID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.freed[id]
}

// WrapDisk makes every later Open wrap its disk with wrap; nil stops it.
func WrapDisk(wrap func(storage.DiskManager) storage.DiskManager) { testWrapDisk = wrap }

// SetCompactHook installs the fail-point Compact runs at each stage.
func (db *DB) SetCompactHook(hook func(stage string) error) { db.compactTestHook = hook }

// Crash abandons db as a killed process leaves it: the buffer pool is
// lost, and the volume and the delta log keep what reached them.
func (db *DB) Crash() {
	db.ds.Close()
	db.disk.Close()
}

// HoldArray returns the master array and chunk view of the published
// instant, held until hold.Release.
func (db *DB) HoldArray() (arr *array.Array, view chunk.View, hold *delta.View, err error) {
	return db.ex.Context().HoldArray()
}

// MarkPass hands mark every page the published catalog reaches.
func (db *DB) MarkPass(mark func(first storage.PageID, n int) error) error {
	return exec.MarkPass(db.bp, db.sb, db.cat, mark)
}

// Flush writes every dirty page of the pool to the volume, as eviction
// may at any time: a page freed and handed out again is then written,
// so the pages a PoisonDisk holds as freed are exactly the free ones.
func (db *DB) Flush() error { return db.bp.FlushAll() }

// VolumePages is the volume's size in pages.
func (db *DB) VolumePages() uint64 { return db.disk.NumPages() }

// DimensionRows calls fn for every row of a dimension table, in load
// order.
func (db *DB) DimensionRows(name string, fn func(key int64, attrs []string) error) error {
	dt, err := db.cat.OpenDimension(db.bp, name)
	if err != nil {
		return err
	}
	return dt.Scan(fn)
}
