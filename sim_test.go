package repro_test

// The simulation is the system's bit-identity spec. Each committed seed
// drives one file-backed database, on a volume that poisons every page
// the moment it is freed, through a random stream of the operations that
// change what it holds or how it holds it: ingest, compaction (checks
// begin and views are held at each of its stages), cache drops, late
// dimension loads through a small pool, array rebuilds, commits, clean
// reopens, crashes (at a compaction stage, at a disk fault under a
// writer, or between operations), held views, and reads whose view is
// taken around a writer. After every operation it sends random Query
// 1/2/3 statements to a random engine x degree x cache x embedded-or-
// served combination and random ADT calls, and checks every answer
// against an in-memory model of the dimension rows and the cells; it
// reads every held view against the model of when it began; and it
// walks the volume from the published root, which must reach no freed
// page. Replay one seed with
//
//	go test -run 'TestSimulation/seed=3$' -v .

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/client"
	"repro/internal/array"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/server"
	"repro/internal/storage"
)

// simSeeds are the committed seeds, simOps operations each after the
// load and its commit. A seed that finds a defect stays here as its
// regression.
var simSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

const simOps = 200

// simDims is the star schema: three dimensions of two hierarchy levels.
var simDims = [3]struct {
	name, key string
	attrs     [2]string
}{
	{"product", "pid", [2]string{"type", "category"}},
	{"store", "sid", [2]string{"city", "region"}},
	{"time", "tid", [2]string{"month", "year"}},
}

// simAttr is dimension d's level-l attribute of key k. Level 2 is a
// function of level 1, as a hierarchy's must be.
func simAttr(d int, k int64, l int) string {
	h1 := k % [3]int64{4, 3, 4}[d]
	if l == 1 {
		return fmt.Sprintf("%c%d", "tsm"[d], h1)
	}
	return fmt.Sprintf("%c%d", "cry"[d], h1%2)
}

var simEngines = []struct {
	embedded repro.Engine
	served   client.Engine
}{
	{repro.Auto, client.Auto},
	{repro.ArrayEngine, client.Array},
	{repro.StarJoinEngine, client.StarJoin},
	{repro.BitmapEngine, client.Bitmap},
}

var simCodecs = []string{"", chunk.CodecOffset, chunk.CodecDense, chunk.CodecDiffSeq, chunk.CodecLZW}

var simShapes = [][]int{{4, 3, 2}, {3, 4, 3}, {5, 2, 4}, {4, 4, 3}}

// simCombo is where a statement runs.
type simCombo struct {
	engine, degree int
	cache, served  bool
}

func (c simCombo) String() string {
	mode := "embedded"
	if c.served {
		mode = "served"
	}
	return fmt.Sprintf("%v degree=%d cache=%v %s", simEngines[c.engine].embedded, c.degree, c.cache, mode)
}

type cellKey [3]int64

// simState is what the database must answer from: each dimension's keys
// in load order, the keys the array was built over, and the cells.
type simState struct {
	dims, array [3][]int64
	cells       map[cellKey]int64
}

func (st *simState) clone() simState {
	c := simState{cells: maps.Clone(st.cells)}
	for d := range st.dims {
		c.dims[d], c.array[d] = slices.Clone(st.dims[d]), slices.Clone(st.array[d])
	}
	return c
}

// apply folds an acknowledged batch in: a later state of a cell wins.
func (st *simState) apply(batch []repro.IngestCell) {
	for _, c := range batch {
		if c.Delete {
			delete(st.cells, cellKey(c.Keys))
		} else {
			st.cells[cellKey(c.Keys)] = c.Value
		}
	}
}

// simModel is the model: the state now, the state the last durable
// commit holds, and what a crash keeps on top of it.
type simModel struct {
	now, durable simState
	facts        map[cellKey]int64
	since        [][]repro.IngestCell // acknowledged since the durable commit
	undrained    int                  // cells acknowledged since the last completed compaction
	ingested     bool                 // a cell was ever acknowledged
	rebuilt      bool                 // a rebuilt array awaits its commit
}

func (m *simModel) commit() {
	m.durable, m.since, m.rebuilt = m.now.clone(), nil, false
}

// crash: the last commit plus every acknowledged ingest, which the delta
// log replays.
func (m *simModel) crash() {
	m.now, m.rebuilt = m.durable.clone(), false
	for _, b := range m.since {
		m.now.apply(b)
	}
}

// simQuery is a statement's shape: per dimension the grouped level (0:
// collapsed), and the selections.
type simQuery struct {
	group [3]int
	sels  []simSel
}

type simSel struct {
	d, level int
	value    string
}

// rows is what every engine must answer q with.
func (st *simState) rows(q simQuery) []core.Row {
	groups := map[string]*core.Row{}
cells:
	for k, v := range st.cells {
		for _, s := range q.sels {
			if simAttr(s.d, k[s.d], s.level) != s.value {
				continue cells
			}
		}
		var labels []string
		for d, l := range q.group {
			if l > 0 {
				labels = append(labels, simAttr(d, k[d], l))
			}
		}
		id := strings.Join(labels, "\x00")
		r := groups[id]
		if r == nil {
			r = &core.Row{Groups: labels, Min: v, Max: v}
			groups[id] = r
		}
		r.Sum, r.Count, r.Min, r.Max = r.Sum+v, r.Count+1, min(r.Min, v), max(r.Max, v)
	}
	rows := make([]core.Row, 0, len(groups))
	for _, r := range groups {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i].Groups, rows[j].Groups) < 0 })
	return rows
}

// box sums the cells whose keys lie in [lo, hi] along every dimension.
func (st *simState) box(lo, hi []int64) int64 {
	var sum int64
	for k, v := range st.cells {
		if lo[0] <= k[0] && k[0] <= hi[0] && lo[1] <= k[1] && k[1] <= hi[1] && lo[2] <= k[2] && k[2] <= hi[2] {
			sum += v
		}
	}
	return sum
}

// simHeld is a view held since some instant, and the cells of then.
type simHeld struct {
	arr   *array.Array
	view  chunk.View
	hold  *delta.View
	want  map[cellKey]int64
	began string
}

// simCoverage counts what the seeds exercised.
type simCoverage struct {
	ops    map[string]int
	combos map[simCombo]int
}

var errSimCrash = errors.New("simulated crash")

// faultDisk fails every write and allocation once armed and its
// countdown has run out.
type faultDisk struct {
	storage.DiskManager
	armed atomic.Bool
	left  atomic.Int64
}

func (d *faultDisk) tick() error {
	if d.armed.Load() && d.left.Add(-1) < 0 {
		return errSimCrash
	}
	return nil
}

func (d *faultDisk) WritePage(id storage.PageID, buf []byte) error {
	if err := d.tick(); err != nil {
		return err
	}
	return d.DiskManager.WritePage(id, buf)
}

func (d *faultDisk) Allocate(n int) (storage.PageID, error) {
	if err := d.tick(); err != nil {
		return 0, err
	}
	return d.DiskManager.Allocate(n)
}

type sim struct {
	t        *testing.T
	rng      *rand.Rand
	seed     int64
	path     string
	shape    []int
	db       *repro.DB
	pd       *repro.PoisonDisk
	fd       *faultDisk
	srv      *server.Server
	conns    map[simCombo]*client.Conn
	sessions map[simCombo]*repro.Session
	m        simModel
	held     []simHeld
	cov      *simCoverage
	step     int
	op       string
	nextKey  [3]int64
	loads    int
	stmts    []simStatement
	last     []repro.IngestCell // the last acknowledged batch
}

func (s *sim) failf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d op %d (%s): %s", s.seed, s.step, s.op, fmt.Sprintf(format, args...))
}

func (s *sim) count(name string) { s.cov.ops[name]++ }

// simOpTable is the op stream's mix.
var simOpTable = []struct {
	name   string
	weight int
	run    func(*sim)
}{
	{"ingest", 30, (*sim).ingest},
	{"compact", 10, (*sim).compact},
	{"dropcaches", 4, (*sim).dropCaches},
	{"lateload", 3, (*sim).lateLoad},
	{"rebuild", 5, (*sim).rebuild},
	{"commit", 5, (*sim).commit},
	{"reopen", 3, (*sim).reopen},
	{"crash", 6, (*sim).crash},
	{"hold", 5, (*sim).holdOp},
	{"interleave", 8, (*sim).interleave},
}

func TestSimulation(t *testing.T) {
	cov := &simCoverage{ops: map[string]int{}, combos: map[simCombo]int{}}
	ran := 0
	for _, seed := range simSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSim(t, seed, simOps, cov)
			ran++
		})
	}
	var names []string
	for n := range cov.ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Logf("%-32s %d", n, cov.ops[n])
	}
	for c, n := range cov.combos {
		t.Logf("%-48v %d", c, n)
	}
	if ran < len(simSeeds) {
		return // one seed replayed: its coverage is not the seed set's
	}
	want := []string{"load", "stage applied", "stage swapped", "stage committed",
		"rebuild refused", "ingest refused", "crash at a stage", "crash at a disk fault",
		"crash between ops", "ArrayGet", "ArraySum", "ArraySlice", "Cube", "held view read"}
	for _, op := range simOpTable {
		want = append(want, op.name)
	}
	for _, n := range want {
		if cov.ops[n] == 0 {
			t.Errorf("no seed ran %q", n)
		}
	}
	for e := range simEngines {
		for _, c := range []simCombo{{engine: e, degree: 1}, {engine: e, degree: 2}} {
			for _, c.cache = range []bool{false, true} {
				for _, c.served = range []bool{false, true} {
					if cov.combos[c] == 0 {
						t.Errorf("no statement ran %v", c)
					}
				}
			}
		}
	}
}

func runSim(t *testing.T, seed int64, ops int, cov *simCoverage) {
	rng := rand.New(rand.NewSource(seed))
	s := &sim{t: t, rng: rng, seed: seed, cov: cov, path: filepath.Join(t.TempDir(), "sim.db"),
		shape: simShapes[rng.Intn(len(simShapes))], nextKey: [3]int64{1000, 1000, 1000}}
	defer func() {
		delta.AcquireHook.Store(nil)
		repro.WrapDisk(nil)
		if s.db != nil { // a failed op left it open; its errors are moot
			for _, c := range s.conns {
				c.Close()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s.srv.Shutdown(ctx)
			cancel()
			s.db.Crash()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			s.failf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	s.open()
	s.load()
	s.after()
	for e := range simEngines { // the build's reads, on every engine
		s.queryOn(e, false, &s.m.now)
	}
	s.step, s.op = 1, "commit"
	s.commit()
	s.after()
	total := 0
	for _, op := range simOpTable {
		total += op.weight
	}
	for s.step = 2; s.step < ops+2; s.step++ {
		pick := rng.Intn(total)
		for _, op := range simOpTable {
			if pick -= op.weight; pick < 0 {
				s.op = op.name
				s.count(op.name)
				op.run(s)
				break
			}
		}
		s.after()
	}
	s.op = "close"
	s.shut(true)
}

func (s *sim) open() {
	repro.WrapDisk(func(inner storage.DiskManager) storage.DiskManager {
		s.fd = &faultDisk{DiskManager: inner}
		s.pd = repro.NewPoisonDisk(s.fd)
		return s.pd
	})
	db, err := repro.Open(repro.Options{Path: s.path, BufferPoolBytes: 8 * storage.PageSize})
	repro.WrapDisk(nil)
	if err != nil {
		s.failf("Open: %v", err)
	}
	s.db = db
	db.EnableQueryCache(4 << 20)
	s.srv = server.New(db, server.Config{})
	if err := s.srv.Start(); err != nil {
		s.failf("server: %v", err)
	}
	s.conns, s.sessions = map[simCombo]*client.Conn{}, map[simCombo]*repro.Session{}
}

// shut ends the database's process, cleanly (Close) or not (Crash),
// once its held views are read and released and its server is stopped.
func (s *sim) shut(clean bool) {
	s.releaseHeld()
	for _, c := range s.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.failf("server shutdown: %v", err)
	}
	db := s.db
	s.db = nil
	if !clean {
		db.Crash()
	} else if err := db.Close(); err != nil {
		s.failf("Close: %v", err)
	}
}

// load creates the schema, loads the dimensions (keys shuffled), the
// facts and the bitmap indexes, and builds the array last: its build is
// the last catalog change before the first reads.
func (s *sim) load() {
	s.op = "load"
	s.count("load")
	schema := &repro.StarSchema{Fact: repro.FactSchema{Name: "fact", Measure: "volume"}}
	for _, d := range simDims {
		schema.Fact.Dims = append(schema.Fact.Dims, d.name)
		schema.Dimensions = append(schema.Dimensions, repro.DimensionSchema{Name: d.name, Key: d.key, Attrs: d.attrs[:]})
	}
	if err := s.db.CreateStarSchema(schema); err != nil {
		s.failf("CreateStarSchema: %v", err)
	}
	for d, n := range []int{10 + s.rng.Intn(5), 6 + s.rng.Intn(4), 4 + s.rng.Intn(3)} {
		for _, k := range s.rng.Perm(40)[:n] {
			s.m.now.dims[d] = append(s.m.now.dims[d], int64(k))
		}
		if err := s.loadRows(d, s.m.now.dims[d]); err != nil {
			s.failf("LoadDimension(%s): %v", simDims[d].name, err)
		}
	}
	s.m.now.array = s.m.now.clone().dims
	s.m.now.cells = map[cellKey]int64{}
	var facts []repro.FactTuple
	for _, p := range s.m.now.dims[0] {
		for _, st := range s.m.now.dims[1] {
			for _, tm := range s.m.now.dims[2] {
				if s.rng.Intn(3) == 0 {
					v := s.rng.Int63n(1000) - 100
					facts = append(facts, repro.FactTuple{Keys: []int64{p, st, tm}, Measure: v})
					s.m.now.cells[cellKey{p, st, tm}] = v
				}
			}
		}
	}
	s.m.facts = maps.Clone(s.m.now.cells)
	if err := s.db.LoadFactRows(facts); err != nil {
		s.failf("LoadFactRows: %v", err)
	}
	if err := s.db.BuildBitmapIndexes(); err != nil {
		s.failf("BuildBitmapIndexes: %v", err)
	}
	if err := s.db.BuildArray(repro.ArrayConfig{ChunkShape: s.shape, Codec: simCodecs[s.rng.Intn(len(simCodecs))]}); err != nil {
		s.failf("BuildArray: %v", err)
	}
}

func (s *sim) loadRows(d int, keys []int64) error {
	rows := make([]repro.DimensionRow, len(keys))
	for i, k := range keys {
		rows[i] = repro.DimensionRow{Key: k, Attrs: []string{simAttr(d, k, 1), simAttr(d, k, 2)}}
	}
	return s.db.LoadDimension(simDims[d].name, rows)
}

// after runs the per-op checks: the volume walk, every held view, and a
// read or two.
func (s *sim) after() {
	s.checkVolume(false)
	if st := s.db.DeltaStats(); (st.Cells == 0) != (s.m.undrained == 0) || (st.TouchedChunks > 0) != s.m.ingested {
		s.failf("delta store %+v; the model: %d cells undrained, ingested %v", st, s.m.undrained, s.m.ingested)
	}
	for i := 0; i < len(s.held); {
		s.readHeld(&s.held[i])
		if s.rng.Intn(3) > 0 {
			i++
			continue
		}
		s.held[i].hold.Release()
		s.held = slices.Delete(s.held, i, i+1)
	}
	for n := 1 + s.rng.Intn(2); n > 0; n-- {
		s.check(false, &s.m.now)
	}
}

// check sends one statement or ADT call; its answer must be one of
// wants'.
func (s *sim) check(embedded bool, wants ...*simState) {
	if s.rng.Intn(4) == 0 {
		s.adt(wants...)
	} else {
		s.query(embedded, wants...)
	}
}

// simStatement is one statement: its shape and its text.
type simStatement struct {
	q   simQuery
	sql string
}

// statement picks a statement: mostly one of the seed's few repeated
// ones, so that results are cached, memoised and hit, and sometimes a
// fresh one.
func (s *sim) statement() simStatement {
	if len(s.stmts) < 12 || s.rng.Intn(3) == 0 {
		st := s.randQuery()
		if len(s.stmts) < 12 {
			s.stmts = append(s.stmts, st)
		}
		return st
	}
	return s.stmts[s.rng.Intn(len(s.stmts))]
}

func (s *sim) randQuery() simStatement {
	var q simQuery
	aggs := []string{"sum(volume)", "count(volume)", "min(volume)", "max(volume)", "avg(volume)"}
	s.rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	list := aggs[:1+s.rng.Intn(3)]
	var group, where []string
	for d := range simDims {
		if q.group[d] = s.rng.Intn(3); q.group[d] > 0 {
			group = append(group, simDims[d].attrs[q.group[d]-1])
		}
		if s.rng.Intn(3) > 0 {
			continue
		}
		sel := simSel{d: d, level: 1 + s.rng.Intn(2)}
		sel.value = simAttr(d, int64(s.rng.Intn(4)), sel.level)
		if s.rng.Intn(20) == 0 {
			sel.value = "none" // no member has it
		}
		q.sels = append(q.sels, sel)
		where = append(where, fmt.Sprintf("%s.%s = '%s'", simDims[d].name, simDims[d].attrs[sel.level-1], sel.value))
	}
	sql := "select " + strings.Join(append(list, group...), ", ") + " from fact, product, store, time"
	if len(where) > 0 {
		sql += " where " + strings.Join(where, " and ")
	}
	if len(group) > 0 {
		sql += " group by " + strings.Join(group, ", ")
	}
	return simStatement{q, sql}
}

func (s *sim) session(c simCombo) *repro.Session {
	if ss := s.sessions[c]; ss != nil {
		return ss
	}
	ss := s.db.Session()
	ss.SetParallel(c.degree)
	ss.SetCache(c.cache)
	s.sessions[c] = ss
	return ss
}

func (s *sim) conn(c simCombo) *client.Conn {
	if cn := s.conns[c]; cn != nil {
		return cn
	}
	ctx := context.Background()
	cn, err := client.Dial(s.srv.Addr().String(), client.Config{})
	if err == nil {
		err = cn.SetParallel(ctx, c.degree)
	}
	if err == nil {
		err = cn.SetCache(ctx, c.cache)
	}
	if err != nil {
		s.failf("dial: %v", err)
	}
	s.conns[c] = cn
	return cn
}

// query runs a random statement on a random combination. A statement
// whose view was taken around a writer may answer from either side of
// it, so wants holds every state it may answer from.
func (s *sim) query(embedded bool, wants ...*simState) {
	s.queryOn(s.rng.Intn(len(simEngines)), embedded, wants...)
}

func (s *sim) queryOn(engine int, embedded bool, wants ...*simState) {
	st := s.statement()
	q, sql := st.q, st.sql
	c := simCombo{engine: engine, degree: 1 + s.rng.Intn(2),
		cache: s.rng.Intn(2) == 0, served: !embedded && s.rng.Intn(2) == 0}
	s.cov.combos[c]++
	var got []core.Row
	if c.served {
		res, err := s.conn(c).Query(context.Background(), sql, simEngines[c.engine].served)
		if err != nil {
			s.failf("%v: %s: %v", c, sql, err)
		}
		for _, r := range res.Rows {
			got = append(got, core.Row(r))
		}
	} else {
		res, err := s.session(c).QueryOn(sql, simEngines[c.engine].embedded)
		if err != nil {
			s.failf("%v: %s: %v", c, sql, err)
		}
		got = res.Rows
	}
	for _, w := range wants {
		if core.RowsEqual(got, w.rows(q)) {
			return
		}
	}
	s.failf("%v: %s: %s", c, sql, core.DiffRows(got, wants[0].rows(q)))
}

// arrayKeys picks a cell the array addresses.
func (s *sim) arrayKeys() []int64 {
	keys := make([]int64, 3)
	for d, ks := range s.m.now.array {
		keys[d] = ks[s.rng.Intn(len(ks))]
	}
	return keys
}

// adt calls ArrayGet, ArraySum or ArraySlice.
func (s *sim) adt(wants ...*simState) {
	switch s.rng.Intn(4) {
	case 0:
		s.count("ArrayGet")
		keys := s.arrayKeys()
		if s.rng.Intn(8) == 0 {
			keys[s.rng.Intn(3)] = 1 << 40 // no member has it
		}
		v, ok, err := s.db.ArrayGet(keys)
		for _, w := range wants {
			wv, wok := w.cells[cellKey(keys)]
			if err == nil && ok == wok && v == wv {
				return
			}
		}
		s.failf("ArrayGet(%v) = %d, %v, %v; model %v", keys, v, ok, err, wants[0].cells[cellKey(keys)])
	case 1:
		s.count("ArraySum")
		lo, hi := s.arrayKeys(), s.arrayKeys()
		for d := range lo {
			lo[d], hi[d] = min(lo[d], hi[d]), max(lo[d], hi[d])
		}
		sum, err := s.db.ArraySum(lo, hi)
		for _, w := range wants {
			if err == nil && sum == w.box(lo, hi) {
				return
			}
		}
		s.failf("ArraySum(%v, %v) = %d, %v; model %d", lo, hi, sum, err, wants[0].box(lo, hi))
	case 2:
		s.cube(wants...)
	default:
		s.count("ArraySlice")
		d := s.rng.Intn(3)
		key := s.arrayKeys()[d]
		cells, err := s.db.ArraySlice(simDims[d].name, key)
		got := map[cellKey]int64{}
		for _, c := range cells {
			got[cellKey(c.Keys)] = c.Value
		}
		for _, w := range wants {
			want := maps.Clone(w.cells)
			maps.DeleteFunc(want, func(k cellKey, _ int64) bool { return k[d] != key })
			if err == nil && maps.Equal(got, want) {
				return
			}
		}
		s.failf("ArraySlice(%s, %d) = %d cells, %v; they differ from the model", simDims[d].name, key, len(cells), err)
	}
}

// cube computes a statement's data cube on the array: every cuboid must
// be the model's answer to the statement grouped by its attributes.
func (s *sim) cube(wants ...*simState) {
	s.count("Cube")
	var q simQuery
	var attrs []string
	for d := range simDims {
		if q.group[d] = s.rng.Intn(3); q.group[d] > 0 {
			attrs = append(attrs, simDims[d].attrs[q.group[d]-1])
		}
	}
	sql := "select sum(volume) from fact, product, store, time"
	if len(attrs) > 0 {
		sql = "select sum(volume), " + strings.Join(attrs, ", ") + " from fact, product, store, time group by " + strings.Join(attrs, ", ")
	}
	cuboids, err := s.db.Cube(sql)
	if err != nil || len(cuboids) != 1<<len(attrs) {
		s.failf("Cube(%s): %d cuboids, %v", sql, len(cuboids), err)
	}
next:
	for _, c := range cuboids {
		var cq simQuery
		for d, l := range q.group {
			if l > 0 && slices.Contains(c.GroupAttrs, simDims[d].attrs[l-1]) {
				cq.group[d] = l
			}
		}
		for _, w := range wants {
			if core.RowsEqual(c.Rows, w.rows(cq)) {
				continue next
			}
		}
		s.failf("Cube(%s) cuboid %v: %s", sql, c.GroupAttrs, core.DiffRows(c.Rows, wants[0].rows(cq)))
	}
}

// hold begins a held view, read after every later op until released.
func (s *sim) hold(began string) {
	arr, view, hold, err := s.db.HoldArray()
	if err != nil {
		s.failf("HoldArray: %v", err)
	}
	s.held = append(s.held, simHeld{arr: arr, view: view, hold: hold, want: maps.Clone(s.m.now.cells),
		began: fmt.Sprintf("op %d (%s)", s.step, began)})
}

// readHeld reads every cell through a held view: the cells of when it
// began, from pages no later writer may have freed.
func (s *sim) readHeld(h *simHeld) {
	s.count("held view read")
	dims := h.arr.Dims()
	lists := make([][]int, len(dims))
	for i, d := range dims {
		for j := range d.Keys {
			lists[i] = append(lists[i], j)
		}
	}
	got := map[cellKey]int64{}
	err := core.ArrayBox(h.arr, h.view, lists, func(coords []int, v int64) error {
		var k cellKey
		for i, c := range coords {
			k[i] = dims[i].Keys[c]
		}
		got[k] = v
		return nil
	})
	if err != nil || !maps.Equal(got, h.want) {
		s.failf("view held since %s reads %d cells (%v), want %d", h.began, len(got), err, len(h.want))
	}
}

func (s *sim) releaseHeld() {
	for i := range s.held {
		s.readHeld(&s.held[i])
		s.held[i].hold.Release()
	}
	s.held = nil
}

// checkVolume walks the volume from the published root: no page it
// reaches is freed, and none twice. After a reopen the reached pages and
// the free ones are the whole volume.
func (s *sim) checkVolume(reopened bool) {
	if err := s.db.Flush(); err != nil {
		s.failf("flush: %v", err)
	}
	n := s.db.VolumePages()
	marks := storage.NewMarks(n)
	err := s.db.MarkPass(func(first storage.PageID, k int) error {
		for p := first; p < first+storage.PageID(k); p++ {
			if s.pd.Freed(p) {
				return fmt.Errorf("page %v is reachable and freed", p)
			}
		}
		return marks.Mark(first, k)
	})
	if err != nil {
		s.failf("mark pass: %v", err)
	}
	if !reopened {
		return
	}
	var unmarked int64
	for _, e := range marks.Unmarked() {
		unmarked += int64(e.N)
	}
	if free := s.db.Stats().Volume.FreePages; free != unmarked {
		s.failf("reopened: %d of %d pages unreached, %d free", unmarked, n, free)
	}
	for d, dim := range simDims {
		var keys []int64
		err := s.db.DimensionRows(dim.name, func(k int64, attrs []string) error {
			if attrs[0] != simAttr(d, k, 1) || attrs[1] != simAttr(d, k, 2) {
				return fmt.Errorf("key %d has attributes %v", k, attrs)
			}
			keys = append(keys, k)
			return nil
		})
		if err != nil || !slices.Equal(keys, s.m.now.dims[d]) {
			s.failf("reopened: %s has %d rows (%v), the model %d", dim.name, len(keys), err, len(s.m.now.dims[d]))
		}
	}
}

func (s *sim) ingest() {
	batch := make([]repro.IngestCell, 1+s.rng.Intn(6))
	for i := range batch {
		batch[i] = repro.IngestCell{Keys: s.arrayKeys(), Value: s.rng.Int63n(2000) - 200, Delete: s.rng.Intn(5) == 0}
	}
	if s.last != nil && s.rng.Intn(6) == 0 { // states are absolute: sent again, nothing moves
		batch = slices.Clone(s.last)
		for i := range batch {
			batch[i].Keys = slices.Clone(batch[i].Keys)
		}
	}
	bad := s.rng.Intn(15) == 0
	if bad {
		batch[s.rng.Intn(len(batch))].Keys[s.rng.Intn(3)] = 1 << 40
	}
	var err error
	if s.rng.Intn(4) == 0 {
		wire := make([]client.IngestCell, len(batch))
		for i, c := range batch {
			wire[i] = client.IngestCell(c)
		}
		err = s.conn(simCombo{served: true, degree: 1}).Ingest(context.Background(), wire)
	} else {
		err = s.db.InsertCells(batch)
	}
	if refused := bad || s.m.rebuilt; refused != (err != nil) {
		s.failf("InsertCells: %v, want refused: %v", err, refused)
	} else if refused {
		s.count("ingest refused")
		return
	}
	s.m.now.apply(batch)
	s.m.since = append(s.m.since, batch)
	s.m.undrained += len(batch)
	s.m.ingested = true
	s.last = batch
}

// atStage runs at every compaction stage: a read, and perhaps a view
// held across the rest of the compaction and later ops.
func (s *sim) atStage(stage string) {
	s.count("stage " + stage)
	s.check(false, &s.m.now)
	if s.rng.Intn(2) == 0 {
		s.hold("compaction stage " + stage)
	}
}

// compacted records a compaction that committed, and perhaps drained.
// One with nothing to fold does neither.
func (s *sim) compacted(committed, drained bool) {
	if s.m.undrained == 0 {
		return
	}
	if committed {
		s.m.commit()
	}
	if drained {
		s.m.undrained = 0
	}
}

func (s *sim) compact() {
	s.db.SetCompactHook(func(stage string) error {
		s.atStage(stage)
		return nil
	})
	err := s.db.Compact()
	s.db.SetCompactHook(nil)
	if err != nil {
		s.failf("Compact: %v", err)
	}
	s.compacted(true, true)
}

// dropCaches runs the cold-cache protocol: the first run of a statement
// after it is an engine execution, whatever the result cache held
// before, and its rows are the model's.
func (s *sim) dropCaches() {
	sess := s.session(simCombo{degree: 1, cache: true})
	run := func(st simStatement) *repro.Result {
		res, err := sess.QueryOn(st.sql, repro.Auto)
		if err != nil {
			s.failf("%s: %v", st.sql, err)
		}
		return res
	}
	if len(s.stmts) > 0 {
		run(s.stmts[0])
	}
	if err := s.db.DropCaches(); err != nil {
		s.failf("DropCaches: %v", err)
	}
	if len(s.stmts) == 0 {
		return
	}
	st := s.stmts[0]
	if res := run(st); res.Cached {
		s.failf("%s: the first run after DropCaches was served from the result cache", st.sql)
	} else if want := s.m.now.rows(st.q); !core.RowsEqual(res.Rows, want) {
		s.failf("%s after DropCaches: %s", st.sql, core.DiffRows(res.Rows, want))
	}
}

// lateLoad appends members to a dimension after the load: many to the
// product dimension, enough to spill its heap through the 8-frame pool,
// a few to the others. No fact names them, so no answer moves until an
// ingest after a rebuild does.
func (s *sim) lateLoad() {
	if s.loads == 4 {
		s.count("lateload skipped")
		return
	}
	s.loads++
	d := s.rng.Intn(3)
	n := 5 + s.rng.Intn(10)
	if d == 0 {
		n = 100 + s.rng.Intn(200)
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = s.nextKey[d] + int64(i)
	}
	s.nextKey[d] += int64(n)
	if err := s.loadRows(d, keys); err != nil {
		if s.fd.armed.Load() {
			return
		}
		s.failf("LoadDimension(%s): %v", simDims[d].name, err)
	}
	s.m.now.dims[d] = append(s.m.now.dims[d], keys...)
}

// rebuild builds the array again from the fact file, with a random
// codec: refused once a cell was ever ingested, pending or compacted,
// since the fact file does not hold it.
func (s *sim) rebuild() {
	err := s.db.BuildArray(repro.ArrayConfig{ChunkShape: s.shape, Codec: simCodecs[s.rng.Intn(len(simCodecs))]})
	if s.m.ingested {
		if err == nil {
			s.failf("BuildArray after an ingest (%d cells pending) succeeded", s.m.undrained)
		}
		s.count("rebuild refused")
		return
	}
	if err != nil {
		s.failf("BuildArray: %v", err)
	}
	s.m.now.cells = maps.Clone(s.m.facts)
	s.m.now.array = s.m.now.clone().dims
	s.m.rebuilt = true
}

func (s *sim) commit() {
	if err := s.db.Commit(); err != nil {
		s.failf("Commit: %v", err)
	}
	s.m.commit()
}

func (s *sim) reopen() {
	s.shut(true)
	s.m.commit()
	s.open()
	s.checkVolume(true)
}

// crash kills the process at a compaction stage, at a disk fault under
// a writer, or between ops, and reopens: the model is the last commit
// plus every acknowledged ingest.
func (s *sim) crash() {
	switch s.rng.Intn(3) {
	case 0:
		s.count("crash at a stage")
		stage := []string{"applied", "swapped", "committed"}[s.rng.Intn(3)]
		s.op = "crash at compaction stage " + stage
		s.db.SetCompactHook(func(st string) error {
			if st == stage {
				return errSimCrash
			}
			s.atStage(st)
			return nil
		})
		if err := s.db.Compact(); s.m.undrained > 0 && !errors.Is(err, errSimCrash) {
			s.failf("Compact: %v, want the crash", err)
		}
		s.compacted(stage == "committed", false)
	case 1:
		s.count("crash at a disk fault")
		left := s.rng.Intn(40)
		s.fd.left.Store(int64(left))
		s.fd.armed.Store(true)
		switch s.rng.Intn(3) {
		case 0:
			s.op = fmt.Sprintf("crash: compaction, disk fails after %d writes", left)
			err := s.db.Compact()
			s.compacted(err == nil, err == nil)
		case 1:
			s.op = fmt.Sprintf("crash: commit, disk fails after %d writes", left)
			if s.db.Commit() == nil {
				s.m.commit()
			}
		default:
			s.op = fmt.Sprintf("crash: late load and commit, disk fails after %d writes", left)
			s.lateLoad()
			if s.db.Commit() == nil {
				s.m.commit()
			}
		}
		s.fd.armed.Store(false)
	default:
		s.count("crash between ops")
	}
	s.m.crash()
	s.shut(false)
	s.open()
	s.checkVolume(true)
}

func (s *sim) holdOp() { s.hold("hold") }

// interleave takes a read's view around a writer: the writer runs in
// Acquire, between the read's load of the published view and its hold on
// it. A compaction moves the state under the read, which must load it
// again; an ingest lands between the read's begin and its end.
func (s *sim) interleave() {
	before := s.m.now.clone()
	writer := (*sim).compact
	if s.rng.Intn(2) == 0 {
		writer = (*sim).ingest
	}
	hook := func() {
		delta.AcquireHook.Store(nil)
		writer(s)
	}
	delta.AcquireHook.Store(&hook)
	s.check(true, &before, &s.m.now)
	delta.AcquireHook.Store(nil)
}
