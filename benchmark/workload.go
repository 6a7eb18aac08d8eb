package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/client"
)

// workloadDef is what tells one workload from another: the olapd flags
// it names beyond the defaults, whether its sessions opt out of the
// result cache, and whether a writer runs beside the readers.
type workloadDef struct {
	name     string
	flags    []string
	cacheOff bool
	writer   bool
}

var workloadDefs = []workloadDef{
	{name: "scan", cacheOff: true},
	{name: "select", cacheOff: true},
	{name: "dashboard", flags: []string{"-cache-mb", "64"}},
	{name: "htap", flags: []string{"-cache-mb", "64", "-compact-interval", "2s"}, writer: true},
}

const (
	narrowStatements = 180
	zipfExponent     = 1.1
	wideShare        = 0.10 // of dashboard requests
	batchCells       = 100
	batchInterval    = 50 * time.Millisecond // 20 batches/s
)

// mix is a workload's statement source and the expected answers.
type mix struct {
	spec   cubeSpec
	oracle *oracle
	// pick draws the next request; idx is the statement's row in
	// versions, or -1.
	pick func(rng *rand.Rand) (st *stmt, idx int)
	// prime lists statements every run sends once before warm-up, so
	// that a result cache holds the whole fixed population when the
	// measured window opens.
	prime []*stmt
	// versions[idx][k] is the answer after the writer's first k batches.
	versions [][]answer
}

// matches checks a reply. lo and hi bound how many write batches the
// server can have applied when it answered: those acknowledged before
// the request was sent, and those sent by the time the reply ended.
func (m *mix) matches(st *stmt, idx int, got answer, lo, hi int) bool {
	if idx >= 0 && m.versions != nil {
		for k := lo; k <= hi && k < len(m.versions[idx]); k++ {
			if m.versions[idx][k] == got {
				return true
			}
		}
		return false
	}
	if st.want == nil {
		return m.oracle.answer(st) == got
	}
	return *st.want == got
}

func newMix(def workloadDef, c *cube, o *oracle, seed int64) *mix {
	m := &mix{spec: c.spec, oracle: o}
	rng := rand.New(rand.NewSource(seed))
	fixed := func(pop []*stmt) []*stmt {
		for _, st := range pop {
			want := o.answer(st)
			st.want = &want
		}
		return pop
	}
	switch def.name {
	case "scan":
		pop := fixed(scanPopulation(c.spec))
		m.pick = func(rng *rand.Rand) (*stmt, int) { return pop[rng.Intn(len(pop))], -1 }
	case "select":
		m.pick = func(rng *rand.Rand) (*stmt, int) { return drawSelect(c.spec, rng), -1 }
	case "dashboard", "htap":
		narrow := fixed(narrowPopulation(c.spec, rng, narrowStatements))
		z := newZipf(len(narrow), zipfExponent)
		m.prime = narrow
		if def.name == "htap" {
			m.pick = func(rng *rand.Rand) (*stmt, int) { i := z.draw(rng); return narrow[i], i }
			break
		}
		wide := fixed(widePopulation(c.spec))
		m.prime = append(append([]*stmt{}, narrow...), wide...)
		m.pick = func(rng *rand.Rand) (*stmt, int) {
			if rng.Float64() < wideShare {
				return wide[rng.Intn(len(wide))], -1
			}
			return narrow[z.draw(rng)], -1
		}
	}
	return m
}

// planWrites draws n batches and folds them, batch by batch, into the
// answer every narrow statement has after each. Upserts land in the
// last block of the last dimension (the newest tenth of D1's time-like
// axis), so statements selecting older blocks keep their cached results
// and the rest lose them, as recent-data ingest does. The cube itself is
// left as loaded; the run applies the acknowledged batches afterwards.
func planWrites(c *cube, m *mix, rng *rand.Rand, n int) [][]upsert {
	spec := c.spec
	last := len(spec.dims) - 1
	hotLo := 0
	for spec.blockOf(last, hotLo) != spec.blocksIn(last)-1 {
		hotLo++
	}
	folds := make([]*fold, len(m.prime))
	m.versions = make([][]answer, len(m.prime))
	for i, st := range m.prime {
		folds[i] = m.oracle.start(st)
		m.versions[i] = append(make([]answer, 0, n+1), folds[i].ans)
	}
	written := make(map[int]int8)
	keys := make([]int64, len(spec.dims))
	blocks := make([]int, len(spec.dims))
	batches := make([][]upsert, n)
	for k := range batches {
		batch := make([]upsert, batchCells)
		for j := range batch {
			for d := range keys {
				keys[d] = int64(rng.Intn(spec.dims[d]))
			}
			keys[last] = int64(hotLo + rng.Intn(spec.dims[last]-hotLo))
			u := upsert{id: spec.idOf(keys), val: int8(rng.Intn(100))}
			batch[j] = u
			old, ok := written[u.id]
			if !ok {
				old = c.vals[u.id]
			}
			written[u.id] = u.val
			dsum, dcount := int64(u.val), int64(1)
			if old >= 0 {
				dsum, dcount = int64(u.val)-int64(old), 0
			}
			m.oracle.cellOf(keys, blocks)
			for _, f := range folds {
				f.apply(blocks, dsum, dcount)
			}
		}
		batches[k] = batch
		for i, f := range folds {
			m.versions[i] = append(m.versions[i], f.ans)
		}
	}
	return batches
}

// A served run's measured window is cut into slices of equal length.
// Clients read the current slot when they start a request and file its
// outcome under it: a slice's index, or one of these.
const (
	slotWarm = -1 // warm-up: outcomes are dropped
	slotStop = -2
)

// A run reports the median over its slices, so a burst of interference
// from the machine's other tenants costs a slice and not the run. A
// traced run cuts finer and records spans in every second slice, which
// keeps drift and compaction cycles from landing on one side of the
// traced-against-untraced comparison.
const (
	sliceLen       = 2 * time.Second
	tracedSliceLen = 500 * time.Millisecond
)

// tally is what one goroutine saw in one slice.
type tally struct {
	lat, ttfb         []int64 // ns, correct replies only
	acks, late        []int64 // ns, writer only
	attempted, failed int
	// busy is the time readers spent on requests, think the time they
	// spent between them drawing a statement and checking the reply:
	// the generator's own share of the closed loop.
	busy, think time.Duration
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.ttfb = append(t.ttfb, o.ttfb...)
	t.acks = append(t.acks, o.acks...)
	t.late = append(t.late, o.late...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.busy += o.busy
	t.think += o.think
}

// window is the measured part of a served run, from the end of warm-up
// to the stop: what every goroutine saw, and olapd's and the benchmark's
// counters over it.
type window struct {
	tally
	serverCPU, clientCPU time.Duration
	counters             map[string]float64 // olapd counter deltas
}

// slice is one cut of the measured window.
type slice struct {
	tally
	dur, serverCPU time.Duration
	rss            int64 // olapd's resident set when the slice ended
}

// servedRun is the outcome of one workload run against one olapd.
type servedRun struct {
	setup []time.Duration // one per set-up repeat
	window
	slices     []slice
	dbBytes    int64
	validCells int
	// durability check (htap): cells and engine answers read back
	checks, checkFailures int
}

type runner struct {
	cfg    config
	def    workloadDef
	mix    *mix
	srv    *server
	slot   atomic.Int32
	sent   atomic.Int64 // write batches handed to Ingest
	acked  atomic.Int64 // write batches acknowledged
	errs   atomic.Int32 // failures reported on stderr so far
	primed sync.WaitGroup
}

func (r *runner) complain(format string, args ...any) {
	if r.errs.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", r.def.name, fmt.Sprintf(format, args...))
	}
}

func (r *runner) dial(log *spanLog) (*client.Conn, error) {
	start := time.Now()
	conn, err := client.Dial(r.srv.addr, client.Config{})
	if err != nil {
		return nil, err
	}
	if log != nil {
		log.add("client.dial", 0, "", start, time.Now())
	}
	if r.def.cacheOff {
		if err := conn.SetCache(context.Background(), false); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}

// query sends one statement and folds the reply as it streams in.
func query(conn *client.Conn, st *stmt) (got answer, hdr client.Result, start, first, end time.Time, err error) {
	start = time.Now()
	err = conn.QueryFunc(context.Background(), st.sql, client.Auto, &hdr, func(rows []client.Row) error {
		if first.IsZero() {
			first = time.Now()
		}
		for i := range rows {
			got.rows++
			got.sum += rows[i].Sum
			got.count += rows[i].Count
		}
		return nil
	})
	end = time.Now()
	if first.IsZero() {
		first = end
	}
	return
}

// reader is one closed-loop client: it sends its next request when the
// previous reply has ended, until the run stops.
func (r *runner) reader(i int, conn *client.Conn, rng *rand.Rand, log *spanLog, out []tally) {
	defer conn.Close()
	for j := i; j < len(r.mix.prime); j += r.cfg.clients {
		if _, _, _, _, _, err := query(conn, r.mix.prime[j]); err != nil {
			r.complain("prime %q: %v", r.mix.prime[j].sql, err)
		}
	}
	r.primed.Done()
	r.primed.Wait()
	var dropped tally
	for {
		slot := int(r.slot.Load())
		if slot == slotStop {
			return
		}
		t := &dropped
		if slot >= 0 {
			t = &out[slot]
		}
		loopStart := time.Now()
		st, idx := r.mix.pick(rng)
		lo := int(r.acked.Load())
		got, hdr, start, first, end, err := query(conn, st)
		hi := int(r.sent.Load())
		t.attempted++
		switch {
		case err != nil:
			t.failed++
			r.complain("%q: %v", st.sql, err)
			var serverErr *client.Error
			if !errors.As(err, &serverErr) {
				return // the connection is gone
			}
		case !r.mix.matches(st, idx, got, lo, hi):
			t.failed++
			r.complain("%q: wrong answer %+v (write batches %d..%d)", st.sql, got, lo, hi)
		default:
			t.lat = append(t.lat, int64(end.Sub(start)))
			t.ttfb = append(t.ttfb, int64(first.Sub(start)))
		}
		t.busy += end.Sub(start)
		t.think += time.Since(loopStart) - end.Sub(start)
		if log.records(slot) {
			id := log.add("client.query", 0, hdr.QueryID, start, end)
			log.add("client.first_batch", id, hdr.QueryID, start, first)
			log.add("client.stream", id, hdr.QueryID, first, end)
		}
	}
}

// writer sends batch k at start + k*batchInterval whatever the server is
// doing (open loop) over one connection, and times each acknowledgement
// from when the batch was due, so a stall charges the batches queued
// behind it.
func (r *runner) writer(conn *client.Conn, batches [][]upsert, log *spanLog, out []tally) {
	defer conn.Close()
	start := time.Now()
	idleAt := start
	var dropped tally
	for k, batch := range batches {
		due := start.Add(time.Duration(k) * batchInterval)
		time.Sleep(time.Until(due))
		slot := int(r.slot.Load())
		if slot == slotStop {
			return
		}
		t := &dropped
		if slot >= 0 {
			t = &out[slot]
		}
		woke := time.Now()
		if !idleAt.After(due) {
			// The connection was free when the batch fell due, so any
			// lateness is the generator's own.
			t.late = append(t.late, int64(woke.Sub(due)))
		}
		cells := ingestCells[client.IngestCell](r.mix.spec, batch)
		r.sent.Store(int64(k + 1))
		err := conn.Ingest(context.Background(), cells)
		idleAt = time.Now()
		t.attempted++
		if err != nil {
			t.failed++
			r.complain("ingest batch %d: %v", k, err)
			return // the model no longer knows the server's state
		}
		r.acked.Store(int64(k + 1))
		t.acks = append(t.acks, int64(idleAt.Sub(due)))
		if log.records(slot) {
			log.add("client.ingest", 0, "", woke, idleAt)
		}
	}
	r.complain("writer ran out of planned batches")
}

// snapshot is the state of the counters the windows take deltas of.
type snapshot struct {
	at                   time.Time
	serverCPU, clientCPU time.Duration
	counters             map[string]float64
}

func (r *runner) snapshot() (snapshot, error) {
	cpu, err := r.srv.cpu()
	if err != nil {
		return snapshot{}, err
	}
	counters, err := r.srv.counters()
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{at: time.Now(), serverCPU: cpu, clientCPU: selfCPU(), counters: counters}, nil
}

func (w *window) between(a, b snapshot) {
	w.serverCPU = b.serverCPU - a.serverCPU
	w.clientCPU = b.clientCPU - a.clientCPU
	w.counters = make(map[string]float64, len(b.counters))
	for name, v := range b.counters {
		w.counters[name] = v - a.counters[name]
	}
}

// setUp generates D1 from the seed, loads it into a fresh file and
// starts olapd on it: everything a user waits for before the first query.
func setUp(cfg config, def workloadDef, path string) (*cube, *server, time.Duration, error) {
	start := time.Now()
	c := generate(d1, cfg.seed)
	if _, err := load(c, path, nil); err != nil {
		return nil, nil, 0, fmt.Errorf("load %s: %w", path, err)
	}
	srv, err := startServer(cfg.olapd, path, def.flags)
	if err != nil {
		return nil, nil, 0, err
	}
	return c, srv, time.Since(start), nil
}

// runServed runs one workload once: set up, warm up, measure, and for
// htap kill olapd and check what it acknowledged.
func runServed(cfg config, def workloadDef, rec *recorder) (*servedRun, error) {
	path := fmt.Sprintf("%s/%s-%d.db", cfg.dataDir, def.name, os.Getpid())
	defer removeDB(path)
	res := &servedRun{}

	// Set-up is timed several times over and reported as the median; the
	// last one's database and server carry the run.
	var c *cube
	var srv *server
	for i := 0; i < cfg.setups; i++ {
		if srv != nil {
			srv.stop(syscall.SIGTERM)
		}
		var took time.Duration
		var err error
		if c, srv, took, err = setUp(cfg, def, path); err != nil {
			return nil, err
		}
		res.setup = append(res.setup, took)
	}
	defer srv.stop(syscall.SIGKILL) // a no-op once the run has stopped it

	r := &runner{cfg: cfg, def: def, srv: srv}
	r.mix = newMix(def, c, newOracle(c), cfg.seed)
	readers := cfg.clients
	var batches [][]upsert
	if def.writer {
		readers = max(cfg.clients-1, 1)
		n := int((warmup+cfg.window)/batchInterval) + 40 // 2 s of slack
		batches = planWrites(c, r.mix, rand.New(rand.NewSource(cfg.seed+1)), n)
	}

	// One connection and one span log per goroutine: the readers, then
	// the writer.
	conns := make([]*client.Conn, readers)
	if def.writer {
		conns = append(conns, nil)
	}
	logs := make([]*spanLog, len(conns))
	for i := range conns {
		if rec != nil {
			logs[i] = rec.log()
		}
		conn, err := r.dial(logs[i])
		if err != nil {
			for _, c := range conns[:i] {
				c.Close()
			}
			return nil, fmt.Errorf("dial: %w", err)
		}
		conns[i] = conn
	}
	every := sliceLen
	if rec != nil {
		every = tracedSliceLen
	}
	res.slices = make([]slice, cfg.window/every)
	tallies := make([][]tally, len(conns))
	for i := range tallies {
		tallies[i] = make([]tally, len(res.slices))
	}
	r.slot.Store(slotWarm)
	var wg sync.WaitGroup
	r.primed.Add(readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.reader(i, conns[i], rand.New(rand.NewSource(cfg.seed*1000+int64(i)+2)), logs[i], tallies[i])
		}(i)
	}
	r.primed.Wait()
	if def.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.writer(conns[readers], batches, logs[readers], tallies[readers])
		}()
	}

	// The controller sleeps through warm-up and then each slice, reading
	// olapd's CPU time at the boundaries and every counter on either side
	// of the window.
	stop := func() {
		r.slot.Store(slotStop)
		wg.Wait()
	}
	time.Sleep(warmup)
	before, err := r.snapshot()
	if err != nil {
		stop()
		return nil, err
	}
	cut, cpu := before.at, before.serverCPU
	for i := range res.slices {
		r.slot.Store(int32(i))
		time.Sleep(time.Until(before.at.Add(time.Duration(i+1) * every)))
		now := time.Now()
		cpuNow, err := srv.cpu()
		if err == nil {
			res.slices[i].rss, err = srv.rss()
		}
		if err != nil {
			stop()
			return nil, err
		}
		res.slices[i].dur, res.slices[i].serverCPU = now.Sub(cut), cpuNow-cpu
		cut, cpu = now, cpuNow
	}
	after, err := r.snapshot()
	stop()
	if err != nil {
		return nil, err
	}
	res.between(before, after)
	for i := range res.slices {
		for _, t := range tallies {
			res.slices[i].merge(&t[i])
		}
		res.merge(&res.slices[i].tally)
	}

	// htap ends with a crash, the others with a drain.
	acked := int(r.acked.Load())
	if def.writer {
		srv.stop(syscall.SIGKILL)
	} else {
		srv.stop(syscall.SIGTERM)
	}
	for _, batch := range batches[:acked] {
		c.apply(batch)
	}
	res.validCells = c.valid
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res.dbBytes = st.Size()
	if def.writer {
		res.checks, res.checkFailures, err = checkDurable(path, c, batches[:acked])
		if err != nil {
			return nil, fmt.Errorf("durability check: %w", err)
		}
	}
	return res, nil
}
