package repro

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

var errCompactFault = errors.New("injected compaction fault")

// armedFaultDisk wraps the volume and, once armed, fails every write
// after a countdown — the "disk dies mid-compaction" scenario. Reads
// always succeed so the crashed database can still be examined.
type armedFaultDisk struct {
	inner   storage.DiskManager
	armed   atomic.Bool
	counter atomic.Int64
}

func (d *armedFaultDisk) tick() error {
	if !d.armed.Load() {
		return nil
	}
	if d.counter.Add(-1) < 0 {
		return errCompactFault
	}
	return nil
}

func (d *armedFaultDisk) ReadPage(id storage.PageID, buf []byte) error {
	return d.inner.ReadPage(id, buf)
}

func (d *armedFaultDisk) WritePage(id storage.PageID, buf []byte) error {
	if err := d.tick(); err != nil {
		return err
	}
	return d.inner.WritePage(id, buf)
}

func (d *armedFaultDisk) Allocate(n int) (storage.PageID, error) {
	if err := d.tick(); err != nil {
		return 0, err
	}
	return d.inner.Allocate(n)
}

func (d *armedFaultDisk) NumPages() uint64 { return d.inner.NumPages() }
func (d *armedFaultDisk) Sync() error      { return d.inner.Sync() }
func (d *armedFaultDisk) Close() error     { return d.inner.Close() }

// crashCompaction loads + ingests into a file-backed database, commits
// the base, then attempts a compaction that dies at the given point —
// either a named compactTestHook stage or (stage "disk") an injected
// disk fault — and simulates a process crash. Returns the database
// path, ready to reopen.
func crashCompaction(t *testing.T, stage string, wantRows []Row) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "compactcrash.db")
	var fd *armedFaultDisk
	if stage == "disk" {
		testWrapDisk = func(inner storage.DiskManager) storage.DiskManager {
			fd = &armedFaultDisk{inner: inner}
			return fd
		}
		defer func() { testWrapDisk = nil }()
	}
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	retailIngest(t, db)

	res, err := db.QueryOn(retailQuery, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	if !core.RowsEqual(res.Rows, wantRows) {
		t.Fatalf("pre-crash rows diverge from reference: %s", core.DiffRows(res.Rows, wantRows))
	}

	if stage == "disk" {
		fd.counter.Store(2) // let a couple of writes through, then die
		fd.armed.Store(true)
	} else {
		db.compactTestHook = func(s string) error {
			if s == stage {
				return errCompactFault
			}
			return nil
		}
	}
	if err := db.Compact(); !errors.Is(err, errCompactFault) {
		t.Fatalf("Compact at %q: err = %v, want injected fault", stage, err)
	}
	if fd != nil {
		fd.armed.Store(false)
	}

	// Crash: lose the buffer pool, keep whatever reached the volume
	// and the delta WAL.
	db.ds.Close()
	db.disk.Close()
	return path
}

// TestCompactionCrashRecovery kills a compaction at every interesting
// point — after the fold, after the in-memory swap, after the durable
// commit (but before the delta drain), and via an injected disk fault —
// and checks that a reopened database answers bit-identically to an
// uncrashed one on every engine. The delta WAL's absolute cell states
// make the replay idempotent whichever side of the commit the crash
// landed on.
func TestCompactionCrashRecovery(t *testing.T) {
	ref, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	loadRetail(t, ref)
	retailIngest(t, ref)
	want, err := ref.QueryOn(retailQuery, StarJoinEngine)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := ref.QueryOn(retailSelectQuery, BitmapEngine)
	if err != nil {
		t.Fatal(err)
	}

	for _, stage := range []string{"applied", "swapped", "committed", "disk"} {
		t.Run(stage, func(t *testing.T) {
			path := crashCompaction(t, stage, want.Rows)
			db, err := Open(Options{Path: path})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			for _, eng := range []Engine{ArrayEngine, StarJoinEngine} {
				res, err := db.QueryOn(retailQuery, eng)
				if err != nil {
					t.Fatalf("%v after crash: %v", eng, err)
				}
				if !core.RowsEqual(res.Rows, want.Rows) {
					t.Fatalf("%v after crash at %q: %s", eng, stage,
						core.DiffRows(res.Rows, want.Rows))
				}
			}
			res, err := db.QueryOn(retailSelectQuery, BitmapEngine)
			if err != nil {
				t.Fatalf("bitmap after crash: %v", err)
			}
			if !core.RowsEqual(res.Rows, wantSel.Rows) {
				t.Fatalf("bitmap after crash at %q: %s", stage,
					core.DiffRows(res.Rows, wantSel.Rows))
			}
			// A compaction over the recovered state must also converge.
			if err := db.Compact(); err != nil {
				t.Fatalf("compact after recovery: %v", err)
			}
			res2, err := db.QueryOn(retailQuery, StarJoinEngine)
			if err != nil {
				t.Fatal(err)
			}
			if !core.RowsEqual(res2.Rows, want.Rows) {
				t.Fatalf("post-recovery compact at %q: %s", stage,
					core.DiffRows(res2.Rows, want.Rows))
			}
		})
	}
}
