package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	repro "repro"
	"repro/client"
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
select sum(volume), city, type
from fact, product, store
where fact.pid = product.pid and fact.sid = store.sid
group by city, type`

const retailSelectQuery = `
select sum(volume), city
from fact, product, store
where product.category = 'cat1' and store.region = 'region0'
group by city`

// startServer runs a server over a fresh test database on a random
// loopback port.
func startServer(t testing.TB, cfg Config) (*Server, *repro.DB) {
	t.Helper()
	db := newTestDB(t)
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, db
}

func TestServerQueryMatchesEmbedded(t *testing.T) {
	srv, db := startServer(t, Config{})
	want, err := db.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	for _, eng := range []client.Engine{client.Auto, client.Array, client.StarJoin} {
		res, err := conn.Query(context.Background(), retailQuery, eng)
		if err != nil {
			t.Fatalf("Query(%v): %v", eng, err)
		}
		if len(res.Rows) != len(want.Rows) {
			t.Fatalf("Query(%v) rows = %d, want %d", eng, len(res.Rows), len(want.Rows))
		}
		for i, r := range res.Rows {
			w := want.Rows[i]
			if r.Sum != w.Sum || fmt.Sprint(r.Groups) != fmt.Sprint(w.Groups) {
				t.Fatalf("Query(%v) row %d = %+v, want %+v", eng, i, r, w)
			}
		}
		if res.Plan == "" || res.GroupAttrs[0] != "type" {
			t.Fatalf("Query(%v) header = %+v", eng, res)
		}
	}

	// Bitmap needs a selection; exercise it and the Elapsed field.
	res, err := conn.Query(context.Background(), retailSelectQuery, client.Bitmap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || res.Plan != "bitmap-factfile" {
		t.Fatalf("bitmap result = %+v", res)
	}

	expl, err := conn.Explain(context.Background(), "explain "+retailQuery, client.Auto)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if expl.Chosen == "" || expl.Text == "" {
		t.Fatalf("Explain = %+v", expl)
	}

	// Typed parse error, and the connection survives it.
	if _, err := conn.Query(context.Background(), "not sql", client.Auto); !client.IsCode(err, client.CodeParse) {
		t.Fatalf("garbage query err = %v, want CodeParse", err)
	}
	if _, err := conn.Query(context.Background(), retailQuery, client.Auto); err != nil {
		t.Fatalf("query after parse error: %v", err)
	}
}

func TestServerProtocolVersionMismatch(t *testing.T) {
	srv, _ := startServer(t, Config{})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := &wire.Hello{Version: wire.Version + 9}
	if err := wire.WriteFrame(nc, wire.FrameHello, wire.Encode(hello)); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := readFrame(bufio.NewReader(nc))
	if err != nil {
		t.Fatal(err)
	}
	if ft != wire.FrameError {
		t.Fatalf("frame = %s, want error", ft)
	}
	ef, err := decodeAs[wire.ErrorFrame](payload)
	if err != nil || ef.Code != wire.CodeProtocol {
		t.Fatalf("error frame = %+v (%v), want CodeProtocol", ef, err)
	}
}

// TestServerConcurrentClients hammers one server with goroutine clients,
// one connection each, running mixed array/bitmap queries; results must match
// the embedded engine and the admission counters must balance. Run
// under -race this also proves session isolation end to end.
func TestServerConcurrentClients(t *testing.T) {
	srv, db := startServer(t, Config{MaxConcurrent: 4, QueueDepth: 1000})
	want, err := db.Query(retailQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantSel, err := db.Query(retailSelectQuery)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 10
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := client.Dial(srv.Addr().String(), client.Config{})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			defer conn.Close()
			for j := 0; j < perClient; j++ {
				if (i+j)%2 == 0 {
					res, err := conn.Query(context.Background(), retailQuery, client.Array)
					if err != nil {
						errs <- fmt.Errorf("client %d array: %w", i, err)
						return
					}
					if len(res.Rows) != len(want.Rows) {
						errs <- fmt.Errorf("client %d array rows = %d, want %d", i, len(res.Rows), len(want.Rows))
						return
					}
				} else {
					res, err := conn.Query(context.Background(), retailSelectQuery, client.Bitmap)
					if err != nil {
						errs <- fmt.Errorf("client %d bitmap: %w", i, err)
						return
					}
					if len(res.Rows) != len(wantSel.Rows) {
						errs <- fmt.Errorf("client %d bitmap rows = %d, want %d", i, len(res.Rows), len(wantSel.Rows))
						return
					}
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := db.Registry().Snapshot()
	accepted := snap.Counter("server_queries_accepted_total")
	rejected := snap.Counter("server_queries_rejected_total")
	if accepted+rejected != clients*perClient {
		t.Fatalf("accepted(%d)+rejected(%d) != issued(%d)", accepted, rejected, clients*perClient)
	}
	if rejected != 0 {
		t.Fatalf("rejected = %d with a deep queue", rejected)
	}
}

// TestServerAdmissionRejection occupies the server's only run slot and
// verifies the overflow query is rejected with a typed wire error, did
// no work, and the counters balance.
func TestServerAdmissionRejection(t *testing.T) {
	srv, db := startServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	srv.adm.slots <- struct{}{} // occupy the single slot

	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.Query(context.Background(), retailQuery, client.Auto)
	if !client.IsCode(err, client.CodeAdmission) {
		t.Fatalf("err = %v, want CodeAdmission", err)
	}

	<-srv.adm.slots // release
	if _, err := conn.Query(context.Background(), retailQuery, client.Auto); err != nil {
		t.Fatalf("query after release: %v", err)
	}
	snap := db.Registry().Snapshot()
	if a, r := snap.Counter("server_queries_accepted_total"), snap.Counter("server_queries_rejected_total"); a != 1 || r != 1 {
		t.Fatalf("accepted=%d rejected=%d, want 1/1", a, r)
	}
}

// TestServerCancelWhileQueued is the deterministic cancellation path:
// with the only run slot occupied the query must sit in the admission
// queue, so its context deadline always fires server-side, the
// canceled-queries counter increments, and the connection stays
// reusable.
func TestServerCancelWhileQueued(t *testing.T) {
	srv, db := startServer(t, Config{MaxConcurrent: 1, QueueDepth: 4})
	srv.adm.slots <- struct{}{} // hold the slot so the query queues

	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = conn.Query(ctx, retailQuery, client.Auto)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued+canceled query err = %v, want DeadlineExceeded", err)
	}
	if got := db.Registry().Snapshot().Counter("server_queries_canceled_total"); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}

	<-srv.adm.slots // release the slot; the same connection must work
	res, err := conn.Query(context.Background(), retailQuery, client.Auto)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("query after cancel = (%v, %v)", res, err)
	}
}

// TestServerCancelMidStream cancels from inside the row-batch callback.
// Whichever side wins the race — server stops the stream with a typed
// cancel, or it had already finished — the client must observe
// context.Canceled and the connection must stay clean.
func TestServerCancelMidStream(t *testing.T) {
	srv, _ := startServer(t, Config{BatchRows: 1}) // 16 batches for retailQuery
	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	err = conn.QueryFunc(ctx, retailQuery, client.Auto, nil, func(rows []client.Row) error {
		batches++
		cancel() // mid-stream: first batch consumed, 15 to go
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled stream err = %v, want context.Canceled", err)
	}
	if batches != 1 {
		t.Fatalf("callback ran %d times after cancel, want 1", batches)
	}

	// The same connection must be clean and reusable.
	res, err := conn.Query(context.Background(), retailQuery, client.Auto)
	if err != nil || len(res.Rows) != 16 {
		t.Fatalf("query after cancel = (%v, %v)", res, err)
	}
}

// TestServerOnBatchError verifies a callback error cancels server-side
// work and surfaces as-is.
func TestServerOnBatchError(t *testing.T) {
	srv, _ := startServer(t, Config{BatchRows: 1})
	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	boom := errors.New("stop now")
	err = conn.QueryFunc(context.Background(), retailQuery, client.Auto, nil, func(rows []client.Row) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if _, err := conn.Query(context.Background(), retailQuery, client.Auto); err != nil {
		t.Fatalf("query after callback error: %v", err)
	}
}

// TestServerDrain verifies graceful shutdown: a query parked in the
// admission queue is refused with the typed shutdown error, Shutdown
// returns cleanly, and the listener stops accepting.
func TestServerDrain(t *testing.T) {
	db := newTestDB(t)
	srv := New(db, Config{MaxConcurrent: 1, QueueDepth: 4})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	srv.adm.slots <- struct{}{} // park the next query in the queue

	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	type result struct{ err error }
	res := make(chan result, 1)
	go func() {
		_, err := conn.Query(context.Background(), retailQuery, client.Auto)
		res <- result{err}
	}()

	// Wait until the query is actually queued, then drain.
	for i := 0; srv.adm.waiting() == 0; i++ {
		if i > 1000 {
			t.Fatal("query never queued")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	r := <-res
	if !client.IsCode(r.err, client.CodeShutdown) {
		t.Fatalf("queued query during drain err = %v, want CodeShutdown", r.err)
	}
	if _, err := client.Dial(srv.Addr().String(), client.Config{DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	if got := db.Registry().Snapshot().Gauge("server_connections_active"); got != 0 {
		t.Fatalf("connections_active after shutdown = %v", got)
	}
}

// TestServerBytesAndFrameMetrics spot-checks the traffic metrics move.
func TestServerBytesAndFrameMetrics(t *testing.T) {
	srv, db := startServer(t, Config{})
	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query(context.Background(), retailQuery, client.Auto); err != nil {
		t.Fatal(err)
	}
	snap := db.Registry().Snapshot()
	if snap.Counter("server_bytes_in_total") == 0 || snap.Counter("server_bytes_out_total") == 0 {
		t.Fatalf("byte counters did not move: %+v", snap.Counters)
	}
	if snap.Counter("server_connections_total") != 1 {
		t.Fatalf("connections_total = %d", snap.Counter("server_connections_total"))
	}
	// The request's latency is observed when its goroutine ends, a moment
	// after the last frame reached the client.
	waitFor(t, "the query's frame latency to be observed", 2*time.Second, func() bool {
		for _, h := range db.Registry().Snapshot().Histograms {
			if h.Name == "server_frame_seconds" {
				return h.Count > 0
			}
		}
		return false
	})
}
