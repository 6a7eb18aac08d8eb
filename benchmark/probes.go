package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/client"
)

// The probe phase measures single layers from outside: it times calls
// into the root API on a fresh D1, in this process, after olapd has
// exited, and takes differences. Nothing here reaches below package
// repro, so a layer can be rewritten without touching its probe.

const (
	probeRuns     = 15  // timed repeats of a warm query
	probeRunsSlow = 5   // of a full StarJoin scan, which costs ~40x more
	probeRunsTiny = 300 // of a sub-millisecond call
)

var forcedEngines = []struct {
	name string
	eng  repro.Engine
}{
	{"array", repro.ArrayEngine},
	{"starjoin", repro.StarJoinEngine},
	{"bitmap", repro.BitmapEngine},
}

type prober struct {
	cfg    config
	db     *repro.DB
	path   string
	log    *spanLog
	m      *runMetrics
	oracle *oracle
}

func answerOf(rows []repro.Row) answer {
	a := answer{rows: len(rows)}
	for i := range rows {
		a.sum += rows[i].Sum
		a.count += rows[i].Count
	}
	return a
}

// query runs st on a forced engine (or Auto) as one span and checks the
// answer against the model.
func (p *prober) query(st *stmt, eng repro.Engine) (*repro.Result, error) {
	var res *repro.Result
	_, err := timed(p.log, "repro.QueryOn", func() (err error) {
		res, err = p.db.QueryOn(st.sql, eng)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%q: %w", st.sql, err)
	}
	p.m.attempted++
	if want := p.oracle.answer(st); answerOf(res.Rows) != want {
		p.m.failed++
		p.m.warn("probe %q on engine %v: got %+v, want %+v", st.sql, eng, answerOf(res.Rows), want)
	}
	return res, nil
}

// warm runs st n times after one untimed run and returns the run with
// the median elapsed time.
func (p *prober) warm(st *stmt, eng repro.Engine, n int) (*repro.Result, error) {
	if _, err := p.query(st, eng); err != nil {
		return nil, err
	}
	runs := make([]*repro.Result, n)
	for i := range runs {
		res, err := p.query(st, eng)
		if err != nil {
			return nil, err
		}
		runs[i] = res
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Elapsed < runs[j].Elapsed })
	return runs[n/2], nil
}

// cold empties the buffer pool and runs st once.
func (p *prober) cold(st *stmt, eng repro.Engine) (*repro.Result, error) {
	if _, err := timed(p.log, "repro.DropCaches", p.db.DropCaches); err != nil {
		return nil, err
	}
	return p.query(st, eng)
}

func (p *prober) open(opts repro.Options) (err error) {
	opts.Path = p.path
	_, err = timed(p.log, "repro.Open", func() (err error) {
		p.db, err = repro.Open(opts)
		return err
	})
	if err == nil {
		p.db.SetParallel(1)
	}
	return err
}

func medianNS(ns []int64) float64 { return quantileNS(ns, 0.5) }

// ratio reports a/b, or 0 with a warning when b is 0.
func (p *prober) ratio(name string, a, b float64) float64 {
	if b == 0 {
		p.m.warn("%s: divisor is 0", name)
		return 0
	}
	return a / b
}

// runProbes builds a fresh D1 and reports every probe metric into m.
func runProbes(cfg config, m *runMetrics, rec *recorder) error {
	p := &prober{cfg: cfg, m: m, log: rec.log(), path: fmt.Sprintf("%s/probe-%d.db", cfg.dataDir, os.Getpid())}
	defer removeDB(p.path)
	c := generate(d1, cfg.seed)
	p.oracle = newOracle(c)
	spec := c.spec
	rng := rand.New(rand.NewSource(cfg.seed + 2))

	lt, err := load(c, p.path, p.log)
	if err != nil {
		return err
	}
	m.put("load.dims_s", lt.dims.Seconds(), 1)
	m.put("load.facts_s", lt.facts.Seconds(), 1)
	m.put("load.array_s", lt.array.Seconds(), 1)
	m.put("load.bitmaps_s", lt.bitmaps.Seconds(), 1)
	m.put("load.commit_s", lt.commit.Seconds(), 1)
	m.put("wal.fsyncs_per_commit", float64(lt.commitFsyncs), 1)

	if err := p.open(repro.Options{}); err != nil {
		return err
	}
	defer func() {
		if p.db != nil {
			p.db.Close()
		}
	}()

	// Fixed statements, one per cost class, so that counts depend on the
	// data alone.
	n := len(spec.dims)
	none := make([]uint32, n)
	level := func(dims ...int) []int {
		l := make([]int, n)
		for _, d := range dims {
			l[d] = 1
		}
		return l
	}
	q1 := newStmt(spec, "scan", "sum(volume)", none, level(0))
	q1wide := newStmt(spec, "wide", "sum(volume)", none, level(0, 1, 2, 3))
	point := newStmt(spec, "point", "sum(volume)", []uint32{1 << 3, 1 << 5, 1 << 7, 1 << 2}, level(0))
	broad := newStmt(spec, "broad", "sum(volume)", []uint32{0x155, 0x155, 0x155, 0x155}, level(0))

	// exec: planning cost and planner accuracy.
	classes := map[string][]*stmt{}
	var explainNS []int64
	for len(explainNS) < probeRunsTiny {
		st := drawSelect(spec, rng)
		if len(classes[st.class]) < 3 {
			classes[st.class] = append(classes[st.class], st)
		}
		d, err := timed(p.log, "repro.Explain", func() error { _, err := p.db.Explain(st.sql); return err })
		if err != nil {
			return err
		}
		explainNS = append(explainNS, int64(d))
	}
	m.put("exec.explain_us", medianNS(explainNS)/1e3, len(explainNS))
	for _, class := range []string{"point", "mid", "broad"} {
		var auto, best float64
		for _, st := range classes[class] {
			res, err := p.warm(st, repro.Auto, probeRunsSlow)
			if err != nil {
				return err
			}
			auto += float64(res.Elapsed)
			fastest := 0.0
			for _, e := range forcedEngines {
				res, err := p.warm(st, e.eng, probeRunsSlow)
				if err != nil {
					return err
				}
				if fastest == 0 || float64(res.Elapsed) < fastest {
					fastest = float64(res.Elapsed)
				}
			}
			best += fastest
		}
		m.put("exec.auto_regret."+class, p.ratio("exec.auto_regret."+class, auto, best), len(classes[class]))
	}
	coldOf := map[string]*stmt{"array": broad, "bitmap": broad, "starjoin": q1}
	for _, e := range forcedEngines {
		res, err := p.cold(coldOf[e.name], e.eng)
		if err != nil {
			return err
		}
		name := "exec.est_io_ratio." + e.name
		m.put(name, p.ratio(name, res.Metrics.EstCostIO, float64(res.IO.PhysicalReads)), 1)
	}

	// core: the engines' inner loops, per unit of work they count.
	per := func(name string, st *stmt, eng repro.Engine, runs int, work func(*repro.Result) int64) (*repro.Result, error) {
		res, err := p.warm(st, eng, runs)
		if err != nil {
			return nil, err
		}
		m.put(name, p.ratio(name, float64(res.Elapsed), float64(work(res))), runs)
		return res, nil
	}
	cells := func(r *repro.Result) int64 { return r.Metrics.CellsScanned }
	arrayWarm, err := per("core.array_scan_ns_per_cell", q1, repro.ArrayEngine, probeRuns, cells)
	if err != nil {
		return err
	}
	if _, err := per("core.array_scan_ns_per_cell.wide", q1wide, repro.ArrayEngine, probeRuns, cells); err != nil {
		return err
	}
	if _, err := per("core.array_probe_ns", point, repro.ArrayEngine, probeRuns,
		func(r *repro.Result) int64 { return r.Metrics.Probes }); err != nil {
		return err
	}
	starWarm, err := per("core.starjoin_ns_per_tuple", q1, repro.StarJoinEngine, probeRunsSlow,
		func(r *repro.Result) int64 { return r.Metrics.TuplesScanned })
	if err != nil {
		return err
	}
	bm, err := per("core.bitmap_ns_per_fetch", broad, repro.BitmapEngine, probeRuns,
		func(r *repro.Result) int64 { return r.Metrics.TuplesFetched })
	if err != nil {
		return err
	}
	m.put("bitmap.ands_per_query", float64(bm.Metrics.BitmapANDs), 1)

	degree := runtime.NumCPU()
	p.db.SetParallel(degree)
	arrayPar, err := p.warm(q1, repro.ArrayEngine, probeRuns)
	if err != nil {
		return err
	}
	starPar, err := p.warm(q1, repro.StarJoinEngine, probeRunsSlow)
	if err != nil {
		return err
	}
	p.db.SetParallel(1)
	m.put("core.parallel_speedup.array", float64(arrayWarm.Elapsed)/float64(arrayPar.Elapsed), probeRuns)
	m.put("core.parallel_speedup.starjoin", float64(starWarm.Elapsed)/float64(starPar.Elapsed), probeRunsSlow)
	m.put("core.parallel_efficiency", arrayPar.Metrics.ParallelEfficiency, 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.query(q1, repro.Auto); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m.put("core.alloc_bytes_per_query.scan", float64(after.TotalAlloc-before.TotalAlloc), 1)

	// array: one cell by its keys.
	keys := make([]int64, n)
	var getNS []int64
	for len(getNS) < probeRunsTiny {
		id := rng.Intn(len(c.vals))
		if c.vals[id] < 0 {
			continue
		}
		spec.keysOf(id, keys)
		var v int64
		var ok bool
		d, err := timed(p.log, "repro.ArrayGet", func() (err error) { v, ok, err = p.db.ArrayGet(keys); return err })
		if err != nil {
			return err
		}
		m.attempted++
		if !ok || v != int64(c.vals[id]) {
			m.failed++
			m.warn("ArrayGet(%v) = %d, %v; the model holds %d", keys, v, ok, c.vals[id])
		}
		getNS = append(getNS, int64(d))
	}
	m.put("array.get_us", medianNS(getNS)/1e3, len(getNS))

	// chunk: what the codecs made of the cells.
	sizes, err := p.db.Sizes()
	if err != nil {
		return err
	}
	m.put("chunk.encoded_bytes_per_cell", float64(sizes.ArrayEncodedBytes)/float64(c.valid), 1)
	for _, codec := range []string{"chunk-offset", "diff-seq", "dense"} {
		m.put("chunk.codec_mix."+codec, float64(sizes.ArrayCodecs[codec].Chunks), 1)
	}

	// storage: page reads from a cold pool, and what a miss costs.
	for _, q := range []struct {
		name string
		st   *stmt
		eng  repro.Engine
	}{
		{"storage.cold_reads.array_scan", q1, repro.ArrayEngine},
		{"storage.cold_reads.starjoin_scan", q1, repro.StarJoinEngine},
		{"storage.cold_reads.select_point", point, repro.Auto},
	} {
		res, err := p.cold(q.st, q.eng)
		if err != nil {
			return err
		}
		m.put(q.name, float64(res.IO.PhysicalReads), 1)
	}
	var coldNS []int64
	var coldReads uint64
	for i := 0; i < probeRunsSlow; i++ {
		res, err := p.cold(q1, repro.StarJoinEngine)
		if err != nil {
			return err
		}
		coldNS = append(coldNS, int64(res.Elapsed))
		coldReads = res.IO.PhysicalReads
	}
	m.put("storage.miss_ns_per_page", p.ratio("storage.miss_ns_per_page",
		medianNS(coldNS)-float64(starWarm.Elapsed), float64(coldReads)), probeRunsSlow)

	// cache: a result-cache hit with no wire in the way.
	p.db.EnableQueryCache(64 << 20)
	var hitNS []int64
	for i := 0; i <= probeRunsTiny; i++ {
		var res *repro.Result
		d, err := timed(p.log, "repro.Query", func() (err error) { res, err = p.db.Query(point.sql); return err })
		if err != nil {
			return err
		}
		if res.Cached {
			hitNS = append(hitNS, int64(d))
		}
	}
	if len(hitNS) == 0 {
		m.warn("cache.hit_us: no repeat of a statement was served from the result cache")
	}
	hitUS := medianNS(hitNS) / 1e3
	m.put("cache.hit_us", hitUS, len(hitNS))
	p.db.EnableQueryCache(0)

	// delta: the write path, then what pending writes cost the readers.
	wm := &mix{spec: spec, oracle: p.oracle}
	batches := planWrites(c, wm, rng, 100)
	var ingestNS []int64
	for _, batch := range batches {
		cells := ingestCells[repro.IngestCell](spec, batch)
		d, err := timed(p.log, "repro.InsertCells", func() error { return p.db.InsertCells(cells) })
		if err != nil {
			return err
		}
		ingestNS = append(ingestNS, int64(d))
		c.apply(batch)
	}
	p.oracle = newOracle(c)
	m.put("delta.ingest_us_per_batch", medianNS(ingestNS)/1e3, len(ingestNS))
	pending, err := p.warm(q1, repro.ArrayEngine, probeRuns)
	if err != nil {
		return err
	}
	dirty := p.db.DeltaStats().DirtyChunks
	fileBefore, err := os.Stat(p.path)
	if err != nil {
		return err
	}
	compactTook, err := timed(p.log, "repro.Compact", p.db.Compact)
	if err != nil {
		return err
	}
	fileAfter, err := os.Stat(p.path)
	if err != nil {
		return err
	}
	folded, err := p.warm(q1, repro.ArrayEngine, probeRuns)
	if err != nil {
		return err
	}
	m.put("delta.merge_on_read_slowdown", float64(pending.Elapsed)/float64(folded.Elapsed), probeRuns)
	m.put("delta.compact_ms", float64(compactTook)/1e6, 1)
	m.put("delta.compact_chunks", float64(dirty), 1)
	m.put("delta.compact_bytes_rewritten", float64(fileAfter.Size()-fileBefore.Size()), 1)

	// storage again: the same scan with a pool the fact file does not fit
	// in, against one that holds the whole database.
	var pools [2]float64
	for i, bytes := range []int{4 << 20, 64 << 20} {
		if err := p.db.Close(); err != nil {
			return err
		}
		p.db = nil
		if err := p.open(repro.Options{BufferPoolBytes: bytes}); err != nil {
			return err
		}
		res, err := p.warm(q1, repro.StarJoinEngine, probeRunsSlow)
		if err != nil {
			return err
		}
		pools[i] = float64(res.Elapsed)
	}
	m.put("storage.thrash_slowdown", pools[0]/pools[1], probeRunsSlow)
	err = p.db.Close()
	p.db = nil
	if err != nil {
		return err
	}

	return p.served(c, point, q1wide, hitUS, rng)
}

// served measures the wire, client and server layers against an olapd
// with a result cache, then kills it with writes pending and times the
// recovery.
func (p *prober) served(c *cube, narrow, wide *stmt, hitUS float64, rng *rand.Rand) error {
	m := p.m
	srv, err := startServer(p.cfg.olapd, p.path, []string{"-cache-mb", "64"})
	if err != nil {
		return err
	}
	defer srv.stop(syscall.SIGKILL) // a no-op after the kill below

	var dialNS []int64
	var conn *client.Conn
	for i := 0; i < probeRuns; i++ {
		if conn != nil {
			conn.Close()
		}
		d, err := timed(p.log, "client.dial", func() (err error) { conn, err = client.Dial(srv.addr, client.Config{}); return err })
		if err != nil {
			return err
		}
		dialNS = append(dialNS, int64(d))
	}
	defer conn.Close()
	m.put("client.dial_us", medianNS(dialNS)/1e3, len(dialNS))

	var pingNS []int64
	for i := 0; i < probeRunsTiny; i++ {
		d, err := timed(p.log, "client.ping", conn.Ping)
		if err != nil {
			return err
		}
		pingNS = append(pingNS, int64(d))
	}
	m.put("wire.ping_us", medianNS(pingNS)/1e3, len(pingNS))

	// The same statement again and again: the first reply fills the
	// result cache, the rest are hits.
	hit := func(st *stmt, runs int) (float64, error) {
		var ns []int64
		for i := 0; i <= runs; i++ {
			got, _, start, _, end, err := query(conn, st)
			if err != nil {
				return 0, fmt.Errorf("%q: %w", st.sql, err)
			}
			p.log.add("client.query", 0, "", start, end)
			m.attempted++
			if got != p.oracle.answer(st) {
				m.failed++
				m.warn("served probe %q: wrong answer %+v", st.sql, got)
			}
			if i > 0 {
				ns = append(ns, int64(end.Sub(start)))
			}
		}
		return medianNS(ns), nil
	}
	narrowNS, err := hit(narrow, probeRunsTiny)
	if err != nil {
		return err
	}
	wideNS, err := hit(wide, probeRuns)
	if err != nil {
		return err
	}
	m.put("server.hit_overhead_us", narrowNS/1e3-hitUS, probeRunsTiny)
	wideRows := p.oracle.answer(wide).rows
	m.put("wire.stream_ns_per_row", (wideNS-narrowNS)/float64(wideRows-1), probeRuns)

	// Acknowledged writes, a crash, and the reopen that replays them.
	wm := &mix{spec: c.spec, oracle: p.oracle}
	batches := planWrites(c, wm, rng, 50)
	for _, batch := range batches {
		cells := ingestCells[client.IngestCell](c.spec, batch)
		if _, err := timed(p.log, "client.ingest", func() error { return conn.Ingest(context.Background(), cells) }); err != nil {
			return err
		}
		c.apply(batch)
	}
	p.oracle = newOracle(c)
	srv.stop(syscall.SIGKILL)
	start := time.Now()
	if err := p.open(repro.Options{}); err != nil {
		return err
	}
	m.put("delta.recover_ms", float64(time.Since(start))/1e6, 1)
	// The replayed writes must be in the answer (the model holds them).
	if _, err := p.query(wide, repro.ArrayEngine); err != nil {
		return err
	}
	err = p.db.Close()
	p.db = nil
	return err
}
