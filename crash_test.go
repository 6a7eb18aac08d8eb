package repro

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// dimRowCount counts rows in a dimension through the public query path.
func dimRowCount(db *DB, dim string) (int64, error) {
	// count(*) grouped by nothing over a selection-free consolidation
	// counts fact tuples, not dimension rows, so go through the catalog.
	dt, err := db.cat.OpenDimension(db.bp, dim)
	if err != nil {
		return 0, err
	}
	n, err := dt.NumRows()
	return int64(n), err
}

// productRows returns products with keys from..to-1, all of one type
// and category.
func productRows(from, to int64) []DimensionRow {
	var out []DimensionRow
	for k := from; k < to; k++ {
		out = append(out, DimensionRow{Key: k, Attrs: []string{"typeX", "catX"}})
	}
	return out
}

// slotDisk wraps a volume and, once armed, crashes the next commit at
// its slot write: the write fails after the volume's fsync. With tear
// set, the slot is first written with a byte of its catalog root
// flipped, as a write torn by the crash leaves it: newer, but failing
// its checksum.
type slotDisk struct {
	storage.DiskManager
	armed, tear bool
	syncs       int // volume fsyncs while armed
}

var errSlotCrash = errors.New("crash at the slot write")

func (d *slotDisk) WritePage(id storage.PageID, buf []byte) error {
	if d.armed && id < storage.SlotPages {
		if d.tear {
			torn := bytes.Clone(buf)
			torn[20] ^= 0xFF
			d.DiskManager.WritePage(id, torn)
		}
		return errSlotCrash
	}
	return d.DiskManager.WritePage(id, buf)
}

func (d *slotDisk) Sync() error {
	if d.armed {
		d.syncs++
	}
	return d.DiskManager.Sync()
}

// crashAtSlotWrite commits the retail database, appends 500 products,
// and crashes the next commit at its slot write, after the volume's
// fsync. The reopened database must answer as the first commit did.
func crashAtSlotWrite(t *testing.T, tear bool) {
	path := filepath.Join(t.TempDir(), "slot.db")
	var sd *slotDisk
	testWrapDisk = func(inner storage.DiskManager) storage.DiskManager {
		sd = &slotDisk{DiskManager: inner}
		return sd
	}
	defer func() { testWrapDisk = nil }()
	db, err := Open(Options{Path: path, BufferPoolBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryOn(retailQuery, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := dimRowCount(db, "product")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDimension("product", productRows(1000, 1500)); err != nil {
		t.Fatal(err)
	}
	sd.armed, sd.tear = true, tear
	if err := db.Commit(); !errors.Is(err, errSlotCrash) {
		t.Fatalf("Commit = %v, want the crash at the slot write", err)
	}
	if sd.syncs == 0 {
		t.Fatal("the slot was written before the volume's fsync")
	}
	db.ds.Close()
	db.disk.Close()
	testWrapDisk = nil

	db2, err := Open(Options{Path: path, BufferPoolBytes: 64 * 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got, err := dimRowCount(db2, "product"); err != nil || got != wantRows {
		t.Fatalf("product rows after the crash = %d (%v), want the previous commit's %d", got, err, wantRows)
	}
	res, err := db2.QueryOn(retailQuery, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !core.RowsEqual(res.Rows, want.Rows) {
		t.Fatalf("query after the crash differs: %s", core.DiffRows(res.Rows, want.Rows))
	}
}

// TestCrashBeforeSlotWriteKeepsPreviousCommit: the volume is flushed and
// fsynced, and the process dies before the slot names the new catalog.
func TestCrashBeforeSlotWriteKeepsPreviousCommit(t *testing.T) {
	crashAtSlotWrite(t, false)
}

// TestCrashTornSlotFallsBack: the process dies mid slot write, leaving a
// newer slot that fails its checksum; Open takes the older one.
func TestCrashTornSlotFallsBack(t *testing.T) {
	crashAtSlotWrite(t, true)
}

// TestCrashAfterSlotFsyncShowsNewState: once Commit returns, a crash
// (with later, uncommitted appends evicted to the volume) reopens at
// that commit.
func TestCrashAfterSlotFsyncShowsNewState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slot.db")
	db, err := Open(Options{Path: path, BufferPoolBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	base, err := dimRowCount(db, "product")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDimension("product", productRows(1000, 1300)); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryOn(retailQuery, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	writes := db.bp.Stats().PageWrites
	if err := db.LoadDimension("product", productRows(2000, 7000)); err != nil {
		t.Fatal(err)
	}
	if db.bp.Stats().PageWrites == writes {
		t.Fatal("the uncommitted load evicted nothing to the volume")
	}
	db.ds.Close()
	db.disk.Close()

	db2, err := Open(Options{Path: path, BufferPoolBytes: 64 * 1024})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got, err := dimRowCount(db2, "product"); err != nil || got != base+300 {
		t.Fatalf("product rows after the crash = %d (%v), want the last commit's %d", got, err, base+300)
	}
	res, err := db2.QueryOn(retailQuery, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !core.RowsEqual(res.Rows, want.Rows) {
		t.Fatalf("query after the crash differs: %s", core.DiffRows(res.Rows, want.Rows))
	}
}

// TestLateDimensionLoadLeavesDurableRootIntact: a dimension load after a
// commit, through an 8-frame pool that evicts its pages to the volume,
// writes no page the durable root reaches, nor either commit slot.
func TestLateDimensionLoadLeavesDurableRootIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "late.db")
	db, err := Open(Options{Path: path, BufferPoolBytes: 8 * storage.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	durable := []storage.Extent{{First: 0, N: storage.SlotPages}}
	if err := exec.MarkPass(db.bp, db.sb, db.cat, func(first storage.PageID, n int) error {
		durable = append(durable, storage.Extent{First: first, N: n})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writes := db.bp.Stats().PageWrites
	if err := db.LoadDimension("product", productRows(1000, 6000)); err != nil { // ~12 heap pages
		t.Fatal(err)
	}
	if db.bp.Stats().PageWrites == writes {
		t.Fatal("the load evicted nothing to the volume")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range durable {
		lo, hi := int(e.First)*storage.PageSize, (int(e.First)+e.N)*storage.PageSize
		if !bytes.Equal(after[lo:hi], before[lo:hi]) {
			t.Fatalf("the load wrote the durable root's %d pages at %v", e.N, e.First)
		}
	}
}

// TestCompactCommitWritesOnlyFreshPages: an InsertCells and a Compact on
// the retail database write each page the compaction allocated once,
// and the slot; their commit fsyncs the volume and the slot.
func TestCompactCommitWritesOnlyFreshPages(t *testing.T) {
	db, err := Open(Options{Path: filepath.Join(t.TempDir(), "compact.db")})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	if err := db.InsertCells(oneCell(5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	io := after.Buffer.Sub(before.Buffer)
	if io.Allocations == 0 || io.PageWrites != io.Allocations+1 {
		t.Fatalf("page writes %d, allocations %d: want the allocations and the slot", io.PageWrites, io.Allocations)
	}
	if d := after.WAL.Fsyncs - before.WAL.Fsyncs; d != 2 {
		t.Fatalf("the compaction's commit took %d fsyncs, want 2", d)
	}
	if d := after.WAL.Commits - before.WAL.Commits; d != 1 {
		t.Fatalf("the compaction made %d commits, want 1", d)
	}
}

// TestNoPageLogFile: Open, Commit and Close leave the volume and the
// delta log beside it, and no page log.
func TestNoPageLogFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Path: filepath.Join(dir, "x.db")})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "x.db" || names[1] != "x.db.deltawal" {
		t.Fatalf("files beside the volume: %v", names)
	}
}
