// Command olapcli runs consolidation queries against a database produced
// by olapgen (or any program using the repro API), either embedded
// (-db, opening the files in-process) or remote (-connect, speaking the
// wire protocol to an olapd) — the same REPL, meta-commands and
// rendering either way.
//
// Usage:
//
//	olapcli -db sales.db [-engine auto|array|starjoin|bitmap] "select ..."
//	olapcli -db sales.db            # interactive: one query per line
//	olapcli -connect 127.0.0.1:7432 # same REPL over a server
//
// Each result prints the plan the engine chose, the wall time, the rows
// and, embedded, the page I/O.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/server"
)

// session is what the CLI drives: the protocol's request frames as
// methods. A *client.Conn is one as it stands; embedded mode adapts the
// session olapd itself would open over the database, so both modes run
// the same loop, the same meta-commands and the same renderer.
type session interface {
	Query(ctx context.Context, sql string, engine client.Engine) (*client.Result, error)
	Explain(ctx context.Context, sql string, engine client.Engine) (*client.Explanation, error)
	SetOption(ctx context.Context, name, value string) error
	Ingest(ctx context.Context, cells []client.IngestCell) error
	DeltaStats(ctx context.Context) (*client.DeltaStats, error)
	Compact(ctx context.Context) (time.Duration, error)
	Profiles(ctx context.Context, queryID string, limit int) (string, error)
}

// embedded is a server.Session with the rows read back out of the frames
// a server would have sent.
type embedded struct{ *server.Session }

func (e embedded) Query(ctx context.Context, sql string, engine client.Engine) (*client.Result, error) {
	res, err := e.Session.Query(ctx, sql, engine)
	if err != nil {
		return nil, err
	}
	if res.Rows, err = res.Frames.Rows(); err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// cli is one run's state: the session, the per-statement flags, and in
// embedded mode the database — for what no request frame carries (the
// stats command, the I/O and estimate detail on the plan line).
type cli struct {
	s       session
	db      *repro.DB
	engine  client.Engine
	maxRows int
}

func main() {
	path := flag.String("db", "olap.db", "database path")
	connect := flag.String("connect", "", "query a remote olapd at host:port instead of opening -db")
	engineName := flag.String("engine", "auto", "engine: auto, array, starjoin, bitmap")
	maxRows := flag.Int("rows", 20, "max rows to print (0 = all)")
	metricsAddr := flag.String("metrics", "", "serve engine metrics on this address (e.g. :9090)")
	slowMS := flag.Int("slow-ms", 0, "log queries slower than this many milliseconds (0 = off)")
	cacheMB := flag.Int("cache-mb", 0, "enable the query cache with this budget in MiB (0 = off)")
	workers := flag.Int("workers", 0, "intra-query parallel degree (0 = GOMAXPROCS, 1 = sequential)")
	trace := flag.Bool("trace", false, "trace every query and print its span tree")
	flag.Parse()

	engine, err := parseEngine(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "olapcli: %v\n", err)
		os.Exit(2)
	}
	c := &cli{engine: engine, maxRows: *maxRows}
	var banner string
	if *connect != "" {
		conn, err := client.Dial(*connect, client.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "olapcli: %v\n", err)
			os.Exit(1)
		}
		defer conn.Close()
		c.s = conn
		banner = fmt.Sprintf("connected to %s (%s)", *connect, conn.Server())
	} else {
		db, err := repro.Open(repro.Options{Path: *path})
		if err != nil {
			fmt.Fprintf(os.Stderr, "olapcli: %v\n", err)
			os.Exit(1)
		}
		defer db.Close()
		if *metricsAddr != "" {
			go func() {
				mux := http.NewServeMux()
				mux.Handle("/metrics", db.MetricsHandler())
				if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
					fmt.Fprintf(os.Stderr, "olapcli: metrics server: %v\n", err)
				}
			}()
			fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (Prometheus text; ?format=json)\n", *metricsAddr)
		}
		if *cacheMB > 0 {
			db.EnableQueryCache(int64(*cacheMB) << 20)
		}
		var cfg server.Config
		if *slowMS > 0 {
			cfg.SlowQueryLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
			cfg.SlowQueryMin = time.Duration(*slowMS) * time.Millisecond
		}
		c.s, c.db = embedded{server.NewSession(db, &cfg)}, db
		banner = "repro OLAP engine"
	}

	// The session flags are session options on either side of the wire.
	var opts [][2]string
	if *workers > 0 {
		opts = append(opts, [2]string{"PARALLEL", strconv.Itoa(*workers)})
	}
	if *trace {
		opts = append(opts, [2]string{"TRACE", "on"})
	}
	for _, o := range opts {
		if err := c.s.SetOption(context.Background(), o[0], o[1]); err != nil {
			fmt.Fprintf(os.Stderr, "olapcli: %v\n", err)
			os.Exit(1)
		}
	}

	if flag.NArg() > 0 {
		for _, sql := range flag.Args() {
			if err := c.runQuery(sql); err != nil {
				fmt.Fprintf(os.Stderr, "olapcli: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println(banner + " — one query per line, blank line or ^D to exit")
	if c.db != nil && c.db.Schema() != nil {
		s := c.db.Schema()
		fmt.Printf("schema: fact %s(%s + %s), dimensions:", s.Fact.Name,
			strings.Join(dimKeys(s), ", "), s.Fact.Measure)
		for _, d := range s.Dimensions {
			fmt.Printf(" %s(%s; %s)", d.Name, d.Key, strings.Join(d.Attrs, ", "))
		}
		fmt.Println()
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("olap> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			break
		}
		// A line is a meta-command when its first word names one (the rest,
		// lower-cased, is the argument), a statement otherwise.
		word, arg, _ := strings.Cut(line, " ")
		run, isMeta := metaCommands[strings.ToLower(word)]
		if isMeta {
			err = run(c, strings.ToLower(strings.TrimSpace(arg)))
		} else {
			err = c.runQuery(line)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// metaCommands is the REPL's meta-command table. Each runs against the
// session, so each works embedded and against an olapd alike, except
// stats, which reads the embedded database directly.
var metaCommands = map[string]func(c *cli, arg string) error{
	// trace on|off: collect and print every query's span tree.
	"trace": func(c *cli, arg string) error { return c.setOption("TRACE", arg) },
	// cache on|off: the session's query-cache participation.
	"cache": func(c *cli, arg string) error { return c.setOption("CACHE", arg) },
	// parallel n: the intra-query worker degree (0 = default).
	"parallel": func(c *cli, arg string) error { return c.setOption("PARALLEL", arg) },
	// delta: the HTAP delta store's counters.
	"delta": func(c *cli, _ string) error {
		st, err := c.s.DeltaStats(context.Background())
		if err == nil {
			budget := "unlimited"
			if st.BudgetBytes > 0 {
				budget = strconv.FormatInt(st.BudgetBytes, 10)
			}
			fmt.Printf("delta: cells=%d bytes=%d dirty_chunks=%d touched_chunks=%d budget=%s compactions=%d\n",
				st.Cells, st.Bytes, st.DirtyChunks, st.TouchedChunks, budget, st.Compactions)
		}
		return err
	},
	// compact: fold the accumulated deltas into the chunk store now.
	"compact": func(c *cli, _ string) error {
		elapsed, err := c.s.Compact(context.Background())
		if err == nil {
			fmt.Printf("compacted in %v\n", elapsed.Round(time.Microsecond))
		}
		return err
	},
	// insert k1,k2,...=v [k,...=v ...]: ingest cell states through the HTAP
	// delta path (value "del" deletes the cell).
	"insert": func(c *cli, arg string) error {
		cells, err := parseInsertCells(arg)
		if err == nil {
			err = c.s.Ingest(context.Background(), cells)
		}
		if err == nil {
			fmt.Printf("ingested %d cells\n", len(cells))
		}
		return err
	},
	// recent: the flight recorder's latest query profiles, one per line.
	"recent": func(c *cli, _ string) error {
		raw, err := c.s.Profiles(context.Background(), "", 10)
		if err != nil {
			return err
		}
		var got struct {
			Recent []*repro.QueryProfile `json:"recent"`
		}
		if err := json.Unmarshal([]byte(raw), &got); err != nil {
			return err
		}
		printRecent(got.Recent)
		return nil
	},
	// profile <id>: one query's profile as JSON.
	"profile": func(c *cli, arg string) error {
		raw, err := c.s.Profiles(context.Background(), arg, 0)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if json.Indent(&buf, []byte(raw), "", "  ") != nil {
			buf.Reset()
			buf.WriteString(raw)
		}
		fmt.Println(buf.String())
		return nil
	},
	// stats: the cross-layer engine snapshot.
	"stats": func(c *cli, _ string) error {
		if c.db == nil {
			return errors.New("not supported: stats reads an embedded database (-db); a server exports the same on /metrics")
		}
		printStats(c.db)
		return nil
	},
}

func (c *cli) setOption(name, value string) error {
	err := c.s.SetOption(context.Background(), name, value)
	if err == nil {
		fmt.Printf("%s %s\n", strings.ToLower(name), value)
	}
	return err
}

// runQuery executes one statement (or EXPLAIN) and renders it.
func (c *cli) runQuery(sql string) error {
	ctx := context.Background()
	if strings.HasPrefix(strings.ToLower(strings.TrimSpace(sql)), "explain") {
		// EXPLAIN: the planner's candidates and the chosen tree. EXPLAIN
		// ANALYZE ran the query too, so the tree carries per-operator
		// actuals and ends with the run summary.
		expl, err := c.s.Explain(ctx, sql, c.engine)
		if err != nil {
			return err
		}
		fmt.Print(expl.Text)
		return nil
	}
	res, err := c.s.Query(ctx, sql, c.engine)
	if err != nil {
		return err
	}
	// Embedded, the execution's flight-recorder profile has what no result
	// frame carries: the cache verdict, page I/O and the planner's estimate.
	var cached, detail string
	if c.db != nil {
		if p := c.db.FlightRecorder().Profile(res.QueryID); p != nil {
			if p.CacheHit {
				cached = " cached"
			}
			detail = fmt.Sprintf(" io={logical=%d physical=%d} est={io=%.1f rows=%d}",
				p.LogicalReads, p.PhysicalReads, p.EstIO, p.EstRows)
		}
	}
	fmt.Printf("plan=%s%s engine=%s elapsed=%v rows=%d%s query_id=%s\n",
		res.Plan, cached, res.Engine, res.Elapsed, len(res.Rows), detail, res.QueryID)
	aggNames := make([]string, len(res.Aggs))
	for i, a := range res.Aggs {
		aggNames[i] = repro.AggFunc(a).String()
	}
	if len(res.GroupAttrs) > 0 || len(aggNames) > 0 {
		fmt.Printf("%s | %s\n", strings.Join(res.GroupAttrs, ", "), strings.Join(aggNames, ", "))
	}
	for i, r := range res.Rows {
		if c.maxRows > 0 && i >= c.maxRows {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-c.maxRows)
			break
		}
		vals := make([]string, len(res.Aggs))
		for j, a := range res.Aggs {
			row := repro.Row{Sum: r.Sum, Count: r.Count, Min: r.Min, Max: r.Max}
			if repro.AggFunc(a) == repro.Avg {
				// Display the exact mean; Row.Value(Avg) would round to the
				// nearest integer.
				vals[j] = fmt.Sprintf("%.2f", row.Avg())
			} else {
				vals[j] = fmt.Sprintf("%d", row.Value(repro.AggFunc(a)))
			}
		}
		fmt.Printf("%s | %s\n", strings.Join(r.Groups, ", "), strings.Join(vals, ", "))
	}
	if res.Trace != "" {
		fmt.Printf("trace %s:\n%s", res.QueryID, res.Trace)
	}
	return nil
}

// printRecent renders flight-recorder profiles one per line, most
// recent first (the "recent" meta-command).
func printRecent(profiles []*repro.QueryProfile) {
	if len(profiles) == 0 {
		fmt.Println("no recorded queries")
		return
	}
	for _, p := range profiles {
		line := fmt.Sprintf("%s  %8.2fms  engine=%s degree=%d rows=%d cache_hit=%v",
			p.QueryID, float64(p.Wall)/1e6, p.Engine, p.Degree, p.Rows, p.CacheHit)
		if p.Err != "" {
			line += " error=" + p.Err
		}
		fmt.Println(line)
	}
}

// parseInsertCells parses the "insert" meta-command's argument: one or
// more whitespace-separated assignments "k1,k2,...,kn=value", where the
// keys are the fact's dimension keys in schema order and value "del"
// deletes the cell.
func parseInsertCells(arg string) ([]client.IngestCell, error) {
	var cells []client.IngestCell
	for _, tok := range strings.Fields(arg) {
		keysStr, valStr, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("insert wants k1,k2,...=value, got %q", tok)
		}
		var cell client.IngestCell
		for _, k := range strings.Split(keysStr, ",") {
			key, err := strconv.ParseInt(strings.TrimSpace(k), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad dimension key %q in %q", k, tok)
			}
			cell.Keys = append(cell.Keys, key)
		}
		if valStr == "del" {
			cell.Delete = true
		} else {
			v, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad measure %q in %q (integer or \"del\")", valStr, tok)
			}
			cell.Value = v
		}
		cells = append(cells, cell)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("insert wants at least one k1,k2,...=value assignment")
	}
	return cells, nil
}

// printStats renders the cross-layer engine snapshot (the interactive
// "stats" meta-command).
func printStats(db *repro.DB) {
	es := db.Stats()
	fmt.Printf("buffer: %s evictions=%d\n", es.Buffer.String(), es.Buffer.Evictions)
	fmt.Printf("volume: pages=%d free=%d pending=%d reused=%d\n",
		es.Volume.Pages, es.Volume.FreePages, es.Volume.PendingPages, es.Volume.ReusedPages)
	if es.HasWAL {
		fmt.Printf("commits: %d fsyncs=%d\n", es.WAL.Commits, es.WAL.Fsyncs)
	}
	if es.StatsAge > 0 {
		fmt.Printf("planner stats age: %v\n", es.StatsAge.Round(time.Second))
	} else {
		fmt.Println("planner stats: none (heuristic planning)")
	}
	if es.Queries > 0 {
		fmt.Printf("queries: %d latency p50=%.2fms p95=%.2fms p99=%.2fms\n",
			es.Queries, es.LatencyP50*1e3, es.LatencyP95*1e3, es.LatencyP99*1e3)
	}
	if es.ArrayCodec != "" {
		names := make([]string, 0, len(es.ArrayCodecs))
		for name := range es.ArrayCodecs {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, 0, len(names))
		for _, name := range names {
			u := es.ArrayCodecs[name]
			parts = append(parts, fmt.Sprintf("%s=%d chunks/%d B", name, u.Chunks, u.EncodedBytes))
		}
		fmt.Printf("array codecs (%s): %s\n", es.ArrayCodec, strings.Join(parts, ", "))
	}
	if es.HasCache {
		fmt.Printf("result cache: hits=%d misses=%d evictions=%d invalidated=%d bytes=%d entries=%d\n",
			es.ResultCache.Hits, es.ResultCache.Misses, es.ResultCache.Evictions,
			es.ResultCache.Invalidated, es.ResultCache.Bytes, es.ResultCache.Entries)
		fmt.Printf("chunk cache: hits=%d misses=%d evictions=%d invalidated=%d bytes=%d entries=%d\n",
			es.ChunkCache.Hits, es.ChunkCache.Misses, es.ChunkCache.Evictions,
			es.ChunkCache.Invalidated, es.ChunkCache.Bytes, es.ChunkCache.Entries)
		fmt.Printf("singleflight dedup: %d\n", es.SingleflightDedup)
	} else {
		fmt.Println("query cache: off")
	}
}

func dimKeys(s *repro.StarSchema) []string {
	out := make([]string, 0, len(s.Dimensions))
	for _, d := range s.Dimensions {
		out = append(out, d.Key)
	}
	return out
}

// parseEngine maps an -engine flag value, in any case, to its constant.
func parseEngine(name string) (client.Engine, error) {
	return client.ParseEngine(strings.ToLower(name))
}
