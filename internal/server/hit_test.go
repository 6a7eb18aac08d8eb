package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	repro "repro"
	"repro/client"
	"repro/internal/wire"
)

// Statements over newWideDB(t, 100, 0) by the rows they return.
var wideQueries = map[int]string{
	1:     "select sum(v) from fact",
	10:    "select sum(v), agroup from fact, a group by agroup",
	10000: "select sum(v), aname, bname from fact, a, b group by aname, bname",
}

func startWideServer(t testing.TB, cfg Config) (*Server, *repro.DB) {
	t.Helper()
	db := newWideDB(t, 100, 0)
	db.EnableQueryCache(64 << 20)
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, db
}

// rawFrame is one frame as it came off the socket.
type rawFrame struct {
	t       wire.FrameType
	payload []byte
}

// rawRequest sends one request frame and returns the response frames up
// to and including the one of type last.
func rawRequest(t testing.TB, nc net.Conn, br *bufio.Reader, ft wire.FrameType, payload []byte, last wire.FrameType) []rawFrame {
	t.Helper()
	if err := wire.WriteFrame(nc, ft, payload); err != nil {
		t.Fatal(err)
	}
	var out []rawFrame
	for {
		rt, p, err := readFrame(br)
		if err != nil {
			t.Fatalf("reading the response to a %s frame: %v", ft, err)
		}
		out = append(out, rawFrame{rt, p})
		if rt == wire.FrameError {
			ef, _ := decodeAs[wire.ErrorFrame](p)
			t.Fatalf("%s frame answered with error %+v", ft, ef)
		}
		if rt == last {
			return out
		}
	}
}

// TestResultStreamByteIdentity: the frames a statement's result arrives
// in are the same bytes whether the server ran the engine and encoded
// the rows (a miss), wrote the cache entry's image (the hit after it), or
// ran with CACHE off and encoded rows that are in no entry — and they
// are the bytes Encode gives a RowBatch of the engine's own rows. Only
// ResultDone's elapsed time may differ.
func TestResultStreamByteIdentity(t *testing.T) {
	for _, batchRows := range []int{0, 7} { // neither 256 nor 7 divides 10 or 10 000
		srv, db := startWideServer(t, Config{BatchRows: batchRows})
		for _, rows := range []int{1, 10, 10000} {
			sql := wideQueries[rows]
			t.Run(fmt.Sprintf("batch=%d/rows=%d", batchRows, rows), func(t *testing.T) {
				const id = 2
				query := wire.Encode(&wire.Query{ID: id, SQL: sql, TraceID: "the-same-every-time"})
				stats := func() repro.CacheStats { return db.Stats().ResultCache }
				var streams [3][]rawFrame
				for i, cacheOff := range []bool{false, false, true} {
					nc, br := rawDial(t, srv.Addr().String())
					if cacheOff {
						rawRequest(t, nc, br, wire.FrameSetOption,
							wire.Encode(&wire.SetOption{ID: 1, Name: "CACHE", Value: "off"}), wire.FrameOptionAck)
					}
					before := stats()
					streams[i] = rawRequest(t, nc, br, wire.FrameQuery, query, wire.FrameResultDone)
					after := stats()
					// A miss, a hit, and a run the cache never hears of.
					if after.Hits-before.Hits != [3]int64{0, 1, 0}[i] || (after.Misses > before.Misses) != (i == 0) {
						t.Fatalf("stream %d: result cache hits %d -> %d, misses %d -> %d", i,
							before.Hits, after.Hits, before.Misses, after.Misses)
					}
					nc.Close()
				}
				if db.Stats().ResultCache.Bytes == 0 || db.MetricsSnapshot().Gauge("cache_result_image_bytes") == 0 {
					t.Fatal("the hit was served without an image on its cache entry")
				}

				// What the stream must be, from the embedded engine's rows.
				res, err := db.Session().Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != rows {
					t.Fatalf("statement returns %d rows, want %d", len(res.Rows), rows)
				}
				batch := batchRows
				if batch == 0 {
					batch = wire.DefaultBatchRows
				}
				var want [][]byte
				for off := 0; off < len(res.Rows); off += batch {
					rb := &wire.RowBatch{ID: id}
					for _, r := range res.Rows[off:min(off+batch, len(res.Rows))] {
						rb.Rows = append(rb.Rows, wire.Row(r))
					}
					want = append(want, wire.Encode(rb))
				}

				for i, stream := range streams {
					if len(stream) != len(want)+2 || stream[0].t != wire.FrameResultHeader {
						t.Fatalf("stream %d: %d frames starting with %s, want header + %d batches + done",
							i, len(stream), stream[0].t, len(want))
					}
					for j, fr := range stream[1 : len(stream)-1] {
						if fr.t != wire.FrameRowBatch || !bytes.Equal(fr.payload, want[j]) {
							t.Fatalf("stream %d: frame %d is not batch %d of the engine's rows as Encode renders it", i, j+1, j)
						}
					}
					done, err := decodeAs[wire.ResultDone](stream[len(stream)-1].payload)
					if err != nil {
						t.Fatal(err)
					}
					first, _ := decodeAs[wire.ResultDone](streams[0][len(streams[0])-1].payload)
					done.ElapsedNS, first.ElapsedNS = 0, 0
					if !reflect.DeepEqual(done, first) || done.Rows != int64(rows) {
						t.Fatalf("stream %d: done frame %+v, the miss's %+v", i, done, first)
					}
					if !bytes.Equal(stream[0].payload, streams[0][0].payload) {
						t.Fatalf("stream %d: header differs from the miss's", i)
					}
				}
			})
		}
	}
}

// hitClient is the cheapest possible client of one statement: the same
// pre-encoded Query frame every time (only the request ID changes, in
// place) and a reader that looks at nothing but frame headers. It
// allocates nothing per request, so what a run allocates is the
// server's.
type hitClient struct {
	nc    net.Conn
	br    *bufio.Reader
	frame []byte // header + Query payload
	buf   []byte
	id    uint32
}

func newHitClient(t testing.TB, addr, sql string) *hitClient {
	nc, br := rawDial(t, addr)
	payload := wire.Encode(&wire.Query{SQL: sql, TraceID: "hit-client"})
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, wire.FrameQuery, payload); err != nil {
		t.Fatal(err)
	}
	return &hitClient{nc: nc, br: br, frame: frame.Bytes(), buf: make([]byte, 64<<10)}
}

func (c *hitClient) hit() error {
	c.id++
	binary.BigEndian.PutUint32(c.frame[5:], c.id)
	if _, err := c.nc.Write(c.frame); err != nil {
		return err
	}
	for {
		if _, err := io.ReadFull(c.br, c.buf[:5]); err != nil {
			return err
		}
		n, ft := int(binary.BigEndian.Uint32(c.buf)), wire.FrameType(c.buf[4])
		if _, err := io.ReadFull(c.br, c.buf[:n]); err != nil {
			return err
		}
		switch ft {
		case wire.FrameResultDone:
			return nil
		case wire.FrameError:
			return fmt.Errorf("error frame: %q", c.buf[:n])
		}
	}
}

// TestServedHitAllocs gates what the server allocates to serve a
// result-cache hit: a fixed number of small objects (the decoded request,
// its goroutine and contexts, the profile and trace, the header and done
// frames), and nothing per row — a hit on a 10 000-row result allocates
// what a hit on a 10-row result does, because its rows are neither
// copied nor encoded again.
func TestServedHitAllocs(t *testing.T) {
	srv, _ := startWideServer(t, Config{})
	allocs := map[int]float64{}
	for _, rows := range []int{10, 10000} {
		c := newHitClient(t, srv.Addr().String(), wideQueries[rows])
		for i := 0; i < 3; i++ { // the miss, and the hit that builds the image
			if err := c.hit(); err != nil {
				t.Fatal(err)
			}
		}
		allocs[rows] = testing.AllocsPerRun(200, func() {
			if err := c.hit(); err != nil {
				t.Fatal(err)
			}
		})
		c.nc.Close()
	}
	t.Logf("server allocations per hit: %.1f at 10 rows, %.1f at 10 000 rows", allocs[10], allocs[10000])
	const limit = 45
	if allocs[10] > limit {
		t.Errorf("a 10-row hit allocates %.1f objects in the server, limit %d", allocs[10], limit)
	}
	if allocs[10000] > allocs[10]+2 {
		t.Errorf("a 10 000-row hit allocates %.1f objects in the server against %.1f for 10 rows: something is still per row",
			allocs[10000], allocs[10])
	}
}

// BenchmarkServedHit is the in-repo twin of the benchmark's
// server.hit_overhead_us (rows=1: µs for one client to get a cached
// one-row result over a real connection) and wire.stream_ns_per_row
// (rows=10000: ns per row of a cached wide result, client decode
// included).
func BenchmarkServedHit(b *testing.B) {
	srv, _ := startWideServer(b, Config{})
	for _, rows := range []int{1, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			conn, err := client.Dial(srv.Addr().String(), client.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			var got int
			hit := func() {
				got = 0
				err := conn.QueryFunc(context.Background(), wideQueries[rows], client.Auto, nil, func(batch []client.Row) error {
					got += len(batch)
					return nil
				})
				if err != nil || got != rows {
					b.Fatalf("%d rows, err %v", got, err)
				}
			}
			hit()
			hit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
			perHit := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(perHit/1e3, "µs/hit")
			b.ReportMetric(perHit/float64(rows), "ns/row")
		})
	}
}

// retailYearQuery reads only the chunks whose time coordinate is 0
// (time keys 0..2 under newTestDB's chunk shape).
const retailYearQuery = `
select sum(volume), city
from fact, store, time
where time.year = 'y0'
group by city`

// TestServedHitStaleness: neither the statement memo nor a cache entry's
// image may outlive the data. After an Ingest into a chunk a statement
// reads, the same text — still a memo hit — must miss the result cache
// and return the new value; a statement that cannot see the touched
// chunk keeps being served from its image. Then two connections run the
// same statements at once (under -race: what they share — the memoised
// statement and explanation, the entry and its image — is only read).
func TestServedHitStaleness(t *testing.T) {
	srv, db := startServer(t, Config{})
	db.EnableQueryCache(16 << 20)
	ctx := context.Background()
	conn, err := client.Dial(srv.Addr().String(), client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sum := func(res *client.Result) (s int64) {
		for _, r := range res.Rows {
			s += r.Sum
		}
		return s
	}
	// run returns the statement's total and its flight-recorder profile.
	run := func(c *client.Conn, sql string) (int64, *repro.QueryProfile) {
		t.Helper()
		res, err := c.Query(ctx, sql, client.Auto)
		if err != nil {
			t.Fatal(err)
		}
		prof := db.FlightRecorder().Profile(res.QueryID)
		if prof == nil {
			t.Fatalf("no profile for query %s", res.QueryID)
		}
		return sum(res), prof
	}

	all0, p := run(conn, retailQuery)
	if p.Memo != "miss" || p.CacheHit {
		t.Fatalf("first run: memo=%s cache_hit=%v", p.Memo, p.CacheHit)
	}
	year0, _ := run(conn, retailYearQuery)
	for _, sql := range []string{retailQuery, retailYearQuery} {
		// The memo keeps a statement from its second sighting, so the
		// third finds it there.
		if _, p := run(conn, sql); p.Memo != "miss" || !p.CacheHit {
			t.Fatalf("second run: memo=%s cache_hit=%v", p.Memo, p.CacheHit)
		}
		if _, p := run(conn, sql); p.Memo != "hit" || !p.CacheHit || p.PlanTime <= 0 {
			t.Fatalf("third run: memo=%s cache_hit=%v plan=%v, want a memo hit, a cache hit and a plan time", p.Memo, p.CacheHit, p.PlanTime)
		}
	}
	imageBytes := func() float64 { return db.MetricsSnapshot().Gauge("cache_result_image_bytes") }
	if imageBytes() == 0 {
		t.Fatal("hits were served but no entry holds an image")
	}

	// A new cell (newTestDB loads none whose keys sum to 9) at time key
	// 5, which is outside year y0's chunks.
	cell := []client.IngestCell{{Keys: []int64{4, 0, 5}, Value: 1000}}
	if err := conn.Ingest(ctx, cell); err != nil {
		t.Fatal(err)
	}
	all1, p := run(conn, retailQuery)
	if p.Memo != "hit" || p.CacheHit {
		t.Fatalf("after ingest: memo=%s cache_hit=%v, want the memoised statement to miss the result cache", p.Memo, p.CacheHit)
	}
	if all1 != all0+1000 {
		t.Fatalf("after ingest the statement totals %d, want %d", all1, all0+1000)
	}
	if got, p := run(conn, retailYearQuery); !p.CacheHit || got != year0 {
		t.Fatalf("a statement that cannot see the ingested chunk: cache_hit=%v total %d (was %d)", p.CacheHit, got, year0)
	}

	// EXPLAIN ANALYZE says whether planning was skipped.
	expl, err := conn.Explain(ctx, "explain analyze "+retailQuery, client.Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl.Text, "memo: miss") {
		t.Fatalf("first EXPLAIN ANALYZE of this text does not report memo: miss:\n%s", expl.Text)
	}
	conn.Explain(ctx, "explain analyze "+retailQuery, client.Auto)
	if expl, err = conn.Explain(ctx, "explain analyze "+retailQuery, client.Auto); err != nil || !strings.Contains(expl.Text, "memo: hit") {
		t.Fatalf("third EXPLAIN ANALYZE does not report memo: hit (err %v):\n%s", err, expl.Text)
	}

	// Two connections, the same statements, at once.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		c, err := client.Dial(srv.Addr().String(), client.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				res, err := c.Query(ctx, retailQuery, client.Auto)
				if err != nil || sum(res) != all1 {
					t.Errorf("connection %d: total %d (want %d), err %v", g, sum(res), all1, err)
					return
				}
				if _, err := c.Explain(ctx, "explain analyze "+retailQuery, client.Auto); err != nil {
					t.Errorf("connection %d: %v", g, err)
					return
				}
				if i == 20 && g == 0 {
					// The same state again: the totals stay, the chunk's version
					// moves, so both connections go through a miss mid-loop.
					if err := c.Ingest(ctx, cell); err != nil {
						t.Errorf("connection %d: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
