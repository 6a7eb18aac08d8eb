package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// newTestDB builds the paper's small retail example in memory: 12
// products x 8 stores x 6 time keys, ~144 facts, array + bitmaps built.
func newTestDB(t testing.TB) *repro.DB {
	t.Helper()
	db, err := repro.Open(repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := &repro.StarSchema{
		Fact: repro.FactSchema{Name: "fact", Dims: []string{"product", "store", "time"}, Measure: "volume"},
		Dimensions: []repro.DimensionSchema{
			{Name: "product", Key: "pid", Attrs: []string{"type", "category"}},
			{Name: "store", Key: "sid", Attrs: []string{"city", "region"}},
			{Name: "time", Key: "tid", Attrs: []string{"month", "year"}},
		},
	}
	if err := db.CreateStarSchema(schema); err != nil {
		t.Fatal(err)
	}
	dims := map[string][]repro.DimensionRow{}
	for k := int64(0); k < 12; k++ {
		dims["product"] = append(dims["product"], repro.DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("type%d", k%4), fmt.Sprintf("cat%d", k%2)}})
	}
	for k := int64(0); k < 8; k++ {
		dims["store"] = append(dims["store"], repro.DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("city%d", k%4), fmt.Sprintf("region%d", k%2)}})
	}
	for k := int64(0); k < 6; k++ {
		dims["time"] = append(dims["time"], repro.DimensionRow{Key: k,
			Attrs: []string{fmt.Sprintf("m%d", k%3), fmt.Sprintf("y%d", k/3)}})
	}
	for name, rows := range dims {
		if err := db.LoadDimension(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	var facts []repro.FactTuple
	for p := int64(0); p < 12; p++ {
		for s := int64(0); s < 8; s++ {
			for tm := int64(0); tm < 6; tm++ {
				if (p+s+tm)%4 == 0 {
					facts = append(facts, repro.FactTuple{Keys: []int64{p, s, tm}, Measure: p*100 + s*10 + tm})
				}
			}
		}
	}
	if err := db.LoadFactRows(facts); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildArray(repro.ArrayConfig{ChunkShape: []int{4, 4, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildBitmapIndexes(); err != nil {
		t.Fatal(err)
	}
	return db
}

const retailQuery = `
select sum(volume), count(*), min(volume), max(volume), city, type
from fact, product, store
where fact.pid = product.pid and fact.sid = store.sid
group by city, type`

const retailSelectQuery = `
select sum(volume), city
from fact, product, store
where product.category = 'cat1' and store.region = 'region0'
group by city`

// shardServer is a restartable olapd data server over a shared test DB,
// pinned to its first bound address so a "restarted shard" comes back
// where the coordinator expects it.
type shardServer struct {
	t    testing.TB
	db   *repro.DB
	addr string
	mu   sync.Mutex
	srv  *server.Server
}

func startShard(t testing.TB, db *repro.DB) *shardServer {
	t.Helper()
	s := &shardServer{t: t, db: db, addr: "127.0.0.1:0"}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func (s *shardServer) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		return nil
	}
	srv := server.New(server.Local{DB: s.db}, server.Config{Addr: s.addr})
	if err := srv.Start(); err != nil {
		return err
	}
	s.srv = srv
	s.addr = srv.Addr().String() // pin the port for restarts
	return nil
}

func (s *shardServer) Stop() {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

func (s *shardServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// startCluster spins up n shard servers over one DB plus a coordinator.
func startCluster(t testing.TB, db *repro.DB, n int, cfg Config) (*Coordinator, []*shardServer) {
	t.Helper()
	shards := make([]*shardServer, n)
	for i := range shards {
		shards[i] = startShard(t, db)
		cfg.Shards = append(cfg.Shards, shards[i].Addr())
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co, shards
}

func clientRowsEqual(a, b []client.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sum != b[i].Sum || a[i].Count != b[i].Count ||
			a[i].Min != b[i].Min || a[i].Max != b[i].Max ||
			strings.Join(a[i].Groups, "\x00") != strings.Join(b[i].Groups, "\x00") {
			return false
		}
	}
	return true
}

// singleNodeRows runs sql embedded and converts to wire rows for
// comparison with cluster results.
func singleNodeRows(t testing.TB, db *repro.DB, sql string, engine repro.Engine) []client.Row {
	t.Helper()
	res, err := db.QueryOn(sql, engine)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]client.Row, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = client.Row{Groups: r.Groups, Sum: r.Sum, Count: r.Count, Min: r.Min, Max: r.Max}
	}
	return out
}

// TestClusterBitIdenticalToSingleNode is the acceptance differential:
// every engine, both query shapes, shard counts {1, 2, 3} — the
// coordinator's merge must equal the embedded single-node answer
// exactly.
func TestClusterBitIdenticalToSingleNode(t *testing.T) {
	db := newTestDB(t)
	engines := []struct {
		name   string
		emb    repro.Engine
		remote client.Engine
	}{
		{"array", repro.ArrayEngine, client.Array},
		{"starjoin", repro.StarJoinEngine, client.StarJoin},
		{"bitmap", repro.BitmapEngine, client.Bitmap},
	}
	queries := []struct{ name, sql string }{
		{"consolidate", retailQuery},
		{"select", retailSelectQuery},
	}
	for _, n := range []int{1, 2, 3} {
		co, _ := startCluster(t, db, n, Config{})
		for _, q := range queries {
			for _, e := range engines {
				res, err := co.Query(context.Background(), q.sql, e.remote, QueryOpts{})
				if err != nil {
					t.Fatalf("shards=%d %s %s: %v", n, q.name, e.name, err)
				}
				if !res.Complete || len(res.Reports) != n {
					t.Fatalf("shards=%d %s %s: complete=%v reports=%d", n, q.name, e.name, res.Complete, len(res.Reports))
				}
				want := singleNodeRows(t, db, q.sql, e.emb)
				if !clientRowsEqual(res.Rows, want) {
					t.Fatalf("shards=%d %s %s: cluster rows %v != single-node %v", n, q.name, e.name, res.Rows, want)
				}
				wantPlan := fmt.Sprintf("scatter-gather[%d](", n)
				if !strings.HasPrefix(res.Plan, wantPlan) {
					t.Fatalf("plan = %q, want prefix %q", res.Plan, wantPlan)
				}
			}
		}
		// Auto resolves to one engine cluster-wide and still agrees.
		res, err := co.Query(context.Background(), retailQuery, client.Auto, QueryOpts{})
		if err != nil {
			t.Fatalf("shards=%d auto: %v", n, err)
		}
		if res.Engine == client.Auto {
			t.Fatalf("shards=%d: auto not resolved to a concrete engine", n)
		}
		if want := singleNodeRows(t, db, retailQuery, repro.Auto); !clientRowsEqual(res.Rows, want) {
			t.Fatalf("shards=%d auto: rows differ", n)
		}
	}
}

// TestClusterRetryAfterShardRestart kills one shard, starts the query
// (which must fail its first attempts), restarts the shard during the
// retry backoff, and asserts the query succeeds with Attempts > 1
// recorded for the restarted shard.
func TestClusterRetryAfterShardRestart(t *testing.T) {
	db := newTestDB(t)
	co, shards := startCluster(t, db, 3, Config{Retries: 8, RetryBackoff: 25 * time.Millisecond})

	shards[1].Stop()
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		restarted <- shards[1].Start()
	}()

	res, err := co.Query(context.Background(), retailQuery, client.Array, QueryOpts{})
	if err != nil {
		t.Fatalf("query across restart: %v", err)
	}
	if err := <-restarted; err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !res.Complete {
		t.Fatalf("result not complete after retry: %+v", res.Reports)
	}
	if got := res.Reports[1]; !got.OK || got.Attempts < 2 {
		t.Fatalf("restarted shard report = %+v, want OK with retries", got)
	}
	if want := singleNodeRows(t, db, retailQuery, repro.ArrayEngine); !clientRowsEqual(res.Rows, want) {
		t.Fatal("post-retry merge differs from single-node")
	}
}

// TestClusterPartialMode kills one shard for good. Without PARTIAL the
// query must fail naming the shard; with PARTIAL it must return the
// surviving shards' merge and a report that says exactly which shard is
// missing — and the merge must equal the fold of the survivors'
// sub-answers fetched directly.
func TestClusterPartialMode(t *testing.T) {
	db := newTestDB(t)
	co, shards := startCluster(t, db, 3, Config{Retries: -1})
	dead := 2
	shards[dead].Stop()

	if _, err := co.Query(context.Background(), retailQuery, client.Array, QueryOpts{}); err == nil {
		t.Fatal("strict mode accepted a lost shard")
	} else if !strings.Contains(err.Error(), "PARTIAL") {
		t.Fatalf("strict-mode error does not point at PARTIAL: %v", err)
	}

	res, err := co.Query(context.Background(), retailQuery, client.Array, QueryOpts{Partial: true})
	if err != nil {
		t.Fatalf("partial query: %v", err)
	}
	if res.Complete {
		t.Fatal("partial result claims completeness")
	}
	for i, rep := range res.Reports {
		if wantOK := i != dead; rep.OK != wantOK {
			t.Fatalf("report[%d].OK = %v, want %v (%+v)", i, rep.OK, wantOK, rep)
		}
	}
	if res.Reports[dead].Err == "" {
		t.Fatal("dead shard report carries no error")
	}
	if res.PartialJSON() == "" {
		t.Fatal("incomplete result renders no completeness report")
	}

	// Accuracy: the partial merge is exactly the fold of the surviving
	// shards' sub-answers.
	var want []client.Row
	acc := map[string]int{}
	for i := 0; i < 3; i++ {
		if i == dead {
			continue
		}
		c, err := client.Dial(shards[i].Addr(), client.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.SubQuery(context.Background(), retailQuery, client.Array, "", i, 3, 0)
		c.Close()
		if err != nil {
			t.Fatalf("direct sub-query shard %d: %v", i, err)
		}
		for _, row := range sub.Rows {
			key := strings.Join(row.Groups, "\x00")
			if at, ok := acc[key]; ok {
				want[at].Sum += row.Sum
				want[at].Count += row.Count
				if row.Min < want[at].Min {
					want[at].Min = row.Min
				}
				if row.Max > want[at].Max {
					want[at].Max = row.Max
				}
			} else {
				acc[key] = len(want)
				want = append(want, row)
			}
		}
	}
	sortRows(want)
	if !clientRowsEqual(res.Rows, want) {
		t.Fatalf("partial merge %v != survivors' fold %v", res.Rows, want)
	}
}

func sortRows(rows []client.Row) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && strings.Join(rows[j].Groups, "\x00") < strings.Join(rows[j-1].Groups, "\x00"); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// hangShard is a fake data server whose sub-queries never answer until
// a Cancel frame for them arrives — the deterministic way to observe
// the coordinator's cancel fan-out.
type hangShard struct {
	ln       net.Listener
	subs     atomic.Int64 // sub-queries received
	cancels  atomic.Int64 // cancel frames received
	canceled chan struct{}
}

func startHangShard(t *testing.T) *hangShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &hangShard{ln: ln, canceled: make(chan struct{}, 16)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go h.serve(nc)
		}
	}()
	return h
}

func (h *hangShard) serve(nc net.Conn) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	if ft, _, err := wire.ReadFrame(br); err != nil || ft != wire.FrameHello {
		return
	}
	if err := wire.WriteFrame(nc, wire.FrameHelloAck,
		(&wire.HelloAck{Version: wire.Version, Server: "hang-shard"}).Encode()); err != nil {
		return
	}
	for {
		ft, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch ft {
		case wire.FramePing:
			if err := wire.WriteFrame(nc, wire.FramePong, nil); err != nil {
				return
			}
		case wire.FrameSubQuery:
			sq, err := wire.DecodeSubQuery(payload)
			if err != nil {
				return
			}
			h.subs.Add(1)
			// Hang: answer only when the cancel for this query arrives.
			ft2, p2, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			if ft2 != wire.FrameCancel {
				return
			}
			cf, err := wire.DecodeCancel(p2)
			if err != nil || cf.ID != sq.ID {
				return
			}
			h.cancels.Add(1)
			h.canceled <- struct{}{}
			ef := &wire.ErrorFrame{ID: sq.ID, Code: wire.CodeCanceled, Message: "canceled"}
			if err := wire.WriteFrame(nc, wire.FrameError, ef.Encode()); err != nil {
				return
			}
		default:
			return
		}
	}
}

// TestClusterCancelFansOutToAllShards cancels a distributed query and
// asserts every shard received a wire Cancel frame for its sub-query.
func TestClusterCancelFansOutToAllShards(t *testing.T) {
	const n = 3
	var addrs []string
	hangs := make([]*hangShard, n)
	for i := range hangs {
		hangs[i] = startHangShard(t)
		addrs = append(addrs, hangs[i].ln.Addr().String())
	}
	co, err := New(Config{Shards: addrs, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, qerr := co.Query(ctx, retailQuery, client.Array, QueryOpts{})
		done <- qerr
	}()

	// Wait for every shard to be mid-sub-query, then cancel.
	deadline := time.After(5 * time.Second)
	for {
		if hangs[0].subs.Load()+hangs[1].subs.Load()+hangs[2].subs.Load() >= n {
			break
		}
		select {
		case <-deadline:
			t.Fatal("shards never received their sub-queries")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()

	for i := 0; i < n; i++ {
		select {
		case <-hangs[0].canceled:
		case <-hangs[1].canceled:
		case <-hangs[2].canceled:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d shards saw the cancel", i)
		}
	}
	if err := <-done; err == nil {
		t.Fatal("canceled query returned no error")
	}
	for i, h := range hangs {
		if h.cancels.Load() != 1 {
			t.Fatalf("shard %d saw %d cancel frames, want 1", i, h.cancels.Load())
		}
	}
}

// TestFrontendServesWireProtocol drives the coordinator behind the one
// wire server: plain clients query it like any olapd, partial mode
// arrives via SetPartial, the completeness report rides ResultDone,
// EXPLAIN shows the scatter topology, and the operations it does not
// have answer with a typed code on a connection that stays usable.
func TestFrontendServesWireProtocol(t *testing.T) {
	db := newTestDB(t)
	co, shards := startCluster(t, db, 3, Config{Retries: -1})
	fe := server.New(co, server.Config{})
	if err := fe.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})

	c, err := client.Dial(fe.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Query(context.Background(), retailQuery, client.Array)
	if err != nil {
		t.Fatal(err)
	}
	if want := singleNodeRows(t, db, retailQuery, repro.ArrayEngine); !clientRowsEqual(res.Rows, want) {
		t.Fatal("frontend rows differ from single-node")
	}
	if res.Partial != "" {
		t.Fatalf("complete result carries a partial report: %s", res.Partial)
	}
	if !strings.HasPrefix(res.Plan, "scatter-gather[3](") {
		t.Fatalf("plan = %q", res.Plan)
	}

	expl, err := c.Explain(context.Background(), retailQuery, client.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl.Text, "scatter-gather over 3 shards") {
		t.Fatalf("explain text = %q", expl.Text)
	}

	// What a coordinator does not have: CodeUnsupported under the request's
	// own ID, and the same connection goes on serving.
	ctx := context.Background()
	unsupported := []struct {
		name string
		op   func() error
	}{
		{"DeltaStats", func() error { _, err := c.DeltaStats(ctx); return err }},
		{"Ingest", func() error { return c.Ingest(ctx, []client.IngestCell{{Keys: []int64{0, 0, 0}, Value: 1}}) }},
		{"Compact", func() error { _, err := c.Compact(ctx); return err }},
		{"Profiles", func() error { _, err := c.Profiles(ctx, "", 10); return err }},
		{"SetCache", func() error { return c.SetCache(ctx, false) }},
	}
	for _, u := range unsupported {
		if err := u.op(); !client.IsCode(err, client.CodeUnsupported) {
			t.Fatalf("%s on a coordinator: err = %v, want CodeUnsupported", u.name, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping after %s: %v", u.name, err)
		}
		if _, err := c.Query(ctx, retailQuery, client.Array); err != nil {
			t.Fatalf("Query after %s: %v", u.name, err)
		}
	}

	// Lose a shard: strict queries fail, PARTIAL queries answer with the
	// report on the wire.
	shards[0].Stop()
	if _, err := c.Query(context.Background(), retailQuery, client.Array); err == nil {
		t.Fatal("strict query succeeded with a dead shard")
	}
	if err := c.SetPartial(context.Background(), true); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(context.Background(), retailQuery, client.Array)
	if err != nil {
		t.Fatalf("partial query over wire: %v", err)
	}
	if res.Partial == "" || !strings.Contains(res.Partial, `"ok":false`) {
		t.Fatalf("partial report missing: %q", res.Partial)
	}

	// The PARTIAL option is coordinator-only: a plain data server must
	// reject it.
	dc, err := client.Dial(shards[1].Addr(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if err := dc.SetPartial(ctx, true); !client.IsCode(err, client.CodeUnsupported) {
		t.Fatalf("PARTIAL on a plain olapd: err = %v, want CodeUnsupported", err)
	}
	if err := dc.Ping(); err != nil {
		t.Fatalf("Ping after the refused option: %v", err)
	}
}

// TestClusterConcurrentKillRestart hammers the coordinator with partial
// queries while one shard cycles down and up — run under -race this is
// the acceptance's concurrency check. Every complete answer must equal
// the single-node answer; partial answers must carry accurate reports.
func TestClusterConcurrentKillRestart(t *testing.T) {
	db := newTestDB(t)
	co, shards := startCluster(t, db, 3, Config{Retries: 1, RetryBackoff: 5 * time.Millisecond})
	want := singleNodeRows(t, db, retailQuery, repro.ArrayEngine)

	stop := make(chan struct{})
	var cycles sync.WaitGroup
	cycles.Add(1)
	go func() {
		defer cycles.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			shards[2].Stop()
			time.Sleep(10 * time.Millisecond)
			if err := shards[2].Start(); err != nil {
				t.Errorf("restart: %v", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	for i := 0; i < 40; i++ {
		res, err := co.Query(context.Background(), retailQuery, client.Array, QueryOpts{Partial: true})
		if err != nil {
			// All-shards-lost is impossible here (shards 0 and 1 stay up),
			// so any error is a bug.
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Complete {
			if !clientRowsEqual(res.Rows, want) {
				t.Fatalf("query %d: complete answer differs from single-node", i)
			}
		} else {
			if res.Reports[0].OK != true || res.Reports[1].OK != true || res.Reports[2].OK {
				t.Fatalf("query %d: report blames the wrong shard: %+v", i, res.Reports)
			}
			if res.PartialJSON() == "" {
				t.Fatalf("query %d: partial without report", i)
			}
		}
	}
	close(stop)
	cycles.Wait()
}

// errors import anchor (classification tests below use errors.As).
var _ = errors.As

// TestRetryableClassification pins the retry policy: infrastructure
// errors retry, query faults do not.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{fmt.Errorf("dial tcp: connection refused"), true},
		{&client.Error{Code: client.CodeShutdown, Message: "draining"}, true},
		{&client.Error{Code: client.CodeAdmission, Message: "queue full"}, true},
		{&client.Error{Code: client.CodeParse, Message: "syntax"}, false},
		{&client.Error{Code: client.CodeExec, Message: "boom"}, false},
		{&client.Error{Code: client.CodeProtocol, Message: "bad frame"}, false},
		{&client.Error{Code: client.CodeCanceled, Message: "canceled"}, false},
		{fmt.Errorf("wrapped: %w", &client.Error{Code: client.CodeShutdown}), true},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
