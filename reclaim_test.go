package repro

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/storage"
)

// poisonDisk wraps a volume and, the moment the pool frees pages
// (Discarder), overwrites them with a poison pattern and fails every
// read of them until they are written again: a reader that reaches a
// freed page gets an error, never bytes that happen to still be right.
type poisonDisk struct {
	storage.DiskManager
	mu    sync.Mutex
	freed map[storage.PageID]bool
	reads int // reads of freed pages refused
}

var (
	errFreedRead    = errors.New("read of a freed page")
	errCompactFault = errors.New("injected compaction fault")
)

func (d *poisonDisk) Discard(first storage.PageID, n int) {
	poison := bytes.Repeat([]byte{0xDB}, storage.PageSize)
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := first; id < first+storage.PageID(n); id++ {
		d.DiskManager.WritePage(id, poison)
		d.freed[id] = true
	}
}

func (d *poisonDisk) ReadPage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	freed := d.freed[id]
	if freed {
		d.reads++
	}
	d.mu.Unlock()
	if freed {
		return fmt.Errorf("%w: %v", errFreedRead, id)
	}
	return d.DiskManager.ReadPage(id, buf)
}

// refused reports how many reads of freed pages were refused.
func (d *poisonDisk) refused() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}

func (d *poisonDisk) WritePage(id storage.PageID, buf []byte) error {
	d.mu.Lock()
	delete(d.freed, id)
	d.mu.Unlock()
	return d.DiskManager.WritePage(id, buf)
}

// openPoisoned opens a database whose volume is a poisonDisk.
func openPoisoned(t *testing.T, opts Options) (*DB, *poisonDisk) {
	t.Helper()
	var pd *poisonDisk
	testWrapDisk = func(inner storage.DiskManager) storage.DiskManager {
		pd = &poisonDisk{DiskManager: inner, freed: make(map[storage.PageID]bool)}
		return pd
	}
	defer func() { testWrapDisk = nil }()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, pd
}

// oneCell is the i-th cell of a one-cell ingest round on the retail
// database, walking every chunk.
func oneCell(i int) []IngestCell {
	return []IngestCell{{Keys: []int64{int64(i % 12), int64(i / 12 % 8), int64(i / 96 % 6)}, Value: int64(i)}}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestCompactionGrowthBounded: 1 000 rounds of a one-cell InsertCells and
// a Compact keep the volume within 1.25x its size after the load. Each
// compaction rewrites the touched chunk, the chunk directory, the array
// master and the catalog blob; before freed extents were reused, 200
// rounds grew this volume 13.1x.
func TestCompactionGrowthBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "growth.db")
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	loaded := fileSize(t, path)
	for i := 0; i < 1000; i++ {
		if err := db.InsertCells(oneCell(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	grown := fileSize(t, path)
	vol := db.Stats().Volume
	t.Logf("volume %d -> %d bytes after 1000 compactions (%.2fx); %d pages reused, %d free, %d pending",
		loaded, grown, float64(grown)/float64(loaded), vol.ReusedPages, vol.FreePages, vol.PendingPages)
	if float64(grown) > 1.25*float64(loaded) {
		t.Fatalf("volume grew from %d to %d bytes (%.2fx), bound 1.25x", loaded, grown, float64(grown)/float64(loaded))
	}
	if vol.PendingPages != 0 {
		t.Fatalf("%d pages pending with no reader holding a state", vol.PendingPages)
	}
}

// readAllCells decodes every chunk of arr under view, bypassing caches.
func readAllCells(arr interface {
	Store() *chunk.Store
}, view chunk.View) ([][]chunk.Cell, error) {
	view.Cache = nil
	r := arr.Store().Reader(view, nil)
	out := make([][]chunk.Cell, arr.Store().Geometry().NumChunks())
	for cn := range out {
		cells, err := r.ReadChunk(cn)
		if err != nil {
			return nil, err
		}
		out[cn] = append([]chunk.Cell(nil), cells...)
	}
	return out, nil
}

// TestHeldSnapshotSurvivesCompactions: a reader holding one view across 50
// compactions reads the same cells every time, on a volume that poisons
// every page the moment it is freed and fails reads of it. What those
// compactions retire stays pending until the hold ends; then it is
// freed, and reused.
func TestHeldSnapshotSurvivesCompactions(t *testing.T) {
	db, pd := openPoisoned(t, Options{BufferPoolBytes: 16 * storage.PageSize})
	defer db.Close()
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	retailIngest(t, db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	retailIngest(t, db)

	arr, view, hold, err := db.ex.Context().HoldArray()
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllCells(arr, view)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	defer func() {
		if !released {
			hold.Release()
		}
	}()
	for i := 0; i < 50; i++ {
		// Eight chunks a round, so each compaction retires several extents.
		cells := make([]IngestCell, 0, 8)
		for k := 0; k < 8; k++ {
			cells = append(cells, oneCell(i*7 + k*13)[0])
		}
		if err := db.InsertCells(cells); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		got, err := readAllCells(arr, view)
		if err != nil {
			t.Fatalf("held reader after compaction %d: %v", i+1, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("held reader after compaction %d reads other cells", i+1)
		}
	}
	held := db.Stats().Volume
	if held.PendingPages == 0 {
		t.Fatal("nothing pending under a held view: the compactions retired nothing")
	}
	released = true
	hold.Release()
	freed := db.Stats().Volume
	if freed.PendingPages != 0 || freed.FreePages < held.PendingPages {
		t.Fatalf("after the release: %+v (held: %+v), want every pending page free", freed, held)
	}
	if err := db.InsertCells(oneCell(5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Volume.ReusedPages == freed.ReusedPages {
		t.Fatal("the next compaction reused no freed page")
	}
	if _, err := db.QueryOn(retailQuery, ArrayEngine); err != nil {
		t.Fatal(err)
	}
	if n := pd.refused(); n != 0 {
		t.Fatalf("%d reads of freed pages", n)
	}
}

// markPassDB builds a file database that leaves unreachable pages
// behind — an array built twice, compactions — and returns what it
// answers before it closes.
func markPassDB(t *testing.T, path string) []string {
	t.Helper()
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	if err := db.BuildArray(ArrayConfig{ChunkShape: []int{3, 4, 2}}); err != nil { // the first array is garbage now
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		retailIngest(t, db)
		if err := db.InsertCells(oneCell(17 * i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.InsertCells(oneCell(3)); err != nil { // pending at close: replayed at open
		t.Fatal(err)
	}
	want := everything(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// everything reads every structure a database has, through every
// surface: all three engines on a consolidation and a selection, the
// ADT's functions over every cell, the cube, and the catalog.
func everything(t *testing.T, db *DB) []string {
	t.Helper()
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, q := range []string{retailQuery, retailSelectQuery} {
		for _, eng := range []Engine{ArrayEngine, StarJoinEngine, BitmapEngine} {
			res, err := db.QueryOn(q, eng)
			if err != nil {
				t.Fatalf("%v: %v", eng, err)
			}
			add("%v %v", eng, res.Rows)
		}
	}
	for p := int64(0); p < 12; p++ {
		for s := int64(0); s < 8; s++ {
			for tm := int64(0); tm < 6; tm++ {
				v, ok, err := db.ArrayGet([]int64{p, s, tm})
				if err != nil {
					t.Fatalf("ArrayGet: %v", err)
				}
				add("get %d,%d,%d = %d %v", p, s, tm, v, ok)
			}
		}
	}
	sum, err := db.ArraySum([]int64{0, 0, 0}, []int64{11, 7, 5})
	if err != nil {
		t.Fatalf("ArraySum: %v", err)
	}
	add("sum %d", sum)
	for p := int64(0); p < 12; p++ {
		cells, err := db.ArraySlice("product", p)
		if err != nil {
			t.Fatalf("ArraySlice: %v", err)
		}
		add("slice %d %v", p, cells)
	}
	cube, err := db.Cube("select sum(volume), city, type from fact, product, store group by city, type")
	if err != nil {
		t.Fatalf("Cube: %v", err)
	}
	for _, c := range cube {
		add("cuboid %v %v", c.GroupAttrs, c.Rows)
	}
	cat, err := catalog.Load(db.bp, db.sb)
	if err != nil {
		t.Fatalf("catalog reload: %v", err)
	}
	if !reflect.DeepEqual(cat.Schema, db.cat.Schema) || cat.ArrayState != db.cat.ArrayState {
		t.Fatal("the reloaded catalog differs")
	}
	// Sizes walks every B-tree and heap; its figures move with a
	// compaction, so only its success is compared.
	if _, err := db.Sizes(); err != nil {
		t.Fatalf("Sizes: %v", err)
	}
	return out
}

// TestMarkPassIsSound reopens a database that left garbage behind on a
// volume that fails every read of a page the mark pass freed, and reads
// every structure through every surface: each must answer as it did on
// a volume that freed nothing.
func TestMarkPassIsSound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mark.db")
	want := markPassDB(t, path)
	db, pd := openPoisoned(t, Options{Path: path, BufferPoolBytes: 8 * storage.PageSize})
	defer db.Close()
	vol := db.Stats().Volume
	if vol.FreePages == 0 {
		t.Fatal("the mark pass freed nothing: the test reads no garbage")
	}
	got := everything(t, db)
	if n := pd.refused(); n != 0 {
		t.Fatalf("%d reads of freed pages", n)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if i < len(want) && got[i] != want[i] {
				t.Fatalf("first difference: %q, want %q", got[i], want[i])
			}
		}
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	t.Logf("mark pass freed %d of %d pages", vol.FreePages, vol.Pages)
}

// TestCrashInReusedExtentRecovers: a compaction writes into extents an
// earlier one freed, its dirty pages reach the volume through a tiny
// pool, and the process dies before the commit. The reopened database
// answers exactly as the last commit plus the replayed deltas do.
func TestCrashInReusedExtentRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reuse.db")
	db, err := Open(Options{Path: path, BufferPoolBytes: 8 * storage.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	loadRetail(t, db)
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		retailIngest(t, db)
		if err := db.InsertCells(oneCell(31 * i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().Volume.FreePages == 0 {
		t.Fatal("nothing free before the failing compaction")
	}
	cells := make([]IngestCell, 0, 12)
	for k := 0; k < 12; k++ {
		cells = append(cells, IngestCell{Keys: []int64{int64(k), int64(k % 8), int64(k % 6)}, Value: int64(1000 + k)})
	}
	if err := db.InsertCells(cells); err != nil {
		t.Fatal(err)
	}
	want := everything(t, db)
	reused := db.Stats().Volume.ReusedPages
	db.compactTestHook = func(stage string) error {
		if stage == "swapped" {
			return errCompactFault
		}
		return nil
	}
	if err := db.Compact(); !errors.Is(err, errCompactFault) {
		t.Fatalf("Compact: %v, want the injected fault", err)
	}
	if db.Stats().Volume.ReusedPages == reused {
		t.Fatal("the failed compaction wrote into no reused extent")
	}
	if db.bp.Stats().PageWrites == 0 {
		t.Fatal("nothing reached the volume")
	}
	db.ds.Close()
	db.disk.Close()

	db2, err := Open(Options{Path: path, BufferPoolBytes: 8 * storage.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := everything(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatal("the recovered database answers differently")
	}
	if err := db2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := everything(t, db2); !reflect.DeepEqual(got, want) {
		t.Fatal("the recovered database answers differently after a compaction")
	}
}

// TestReclaimObservable: the volume's page accounting is on the metrics
// registry and in Stats, and moves with compactions.
func TestReclaimObservable(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)
	arr, _, hold, err := db.ex.Context().HoldArray()
	if err != nil || arr == nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.InsertCells(oneCell(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.MetricsSnapshot()
	vol := db.Stats().Volume
	if vol.PendingPages == 0 || snap.Gauge("storage_pending_pages") != float64(vol.PendingPages) {
		t.Fatalf("held: stats %+v, storage_pending_pages %v", vol, snap.Gauge("storage_pending_pages"))
	}
	hold.Release()
	for i := 0; i < 3; i++ {
		if err := db.InsertCells(oneCell(i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	snap = db.MetricsSnapshot()
	vol = db.Stats().Volume
	if vol.ReusedPages == 0 || snap.Counter("storage_reused_pages_total") != int64(vol.ReusedPages) ||
		snap.Gauge("storage_free_pages") != float64(vol.FreePages) || vol.PendingPages != 0 {
		t.Fatalf("released: stats %+v, storage_reused_pages_total %d, storage_free_pages %v",
			vol, snap.Counter("storage_reused_pages_total"), snap.Gauge("storage_free_pages"))
	}
}
