// Package clusterbench benchmarks the scatter-gather coordinator
// (olapbench -fig cluster). It lives apart from internal/bench because
// it drives whole repro.DB-backed shard servers, and the root package's
// own tests import internal/bench — importing repro from there would
// cycle.
package clusterbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	repro "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/server"
)

// ClusterOptions tunes the cluster scatter-gather benchmark (olapbench
// -fig cluster): every engine's consolidation and selection query run
// through a coordinator at shard counts 1..MaxShards, recording the
// scatter/gather wait breakdown.
type ClusterOptions struct {
	// Shards lists running olapd data servers to benchmark against
	// (olapbench -connect a,b,c). Empty self-hosts MaxShards in-process
	// servers over one generated database.
	Shards []string
	// MaxShards bounds the shard-count sweep when self-hosting; 0
	// selects 3. With external Shards the sweep runs 1..len(Shards).
	MaxShards int
	Trials    int     // trials per measurement, fastest kept; 0 = 3
	Scale     float64 // self-hosted data set scale; 0 = 1.0
	Seed      int64   // self-hosted generation seed; 0 = 1
}

// ClusterMeasurement is one (query, engine, shard count) cell: the best
// trial's distributed timing with its scatter/gather breakdown.
type ClusterMeasurement struct {
	Query     string  `json:"query"`
	Engine    string  `json:"engine"`
	Shards    int     `json:"shards"`
	Plan      string  `json:"plan"`
	ElapsedNS int64   `json:"elapsed_ns"`
	ScatterNS int64   `json:"scatter_ns"`
	GatherNS  int64   `json:"gather_ns"`
	WaitNS    []int64 `json:"shard_wait_ns"`
	Rows      int     `json:"rows"`
	// Agree reports whether this cell's rows are bit-identical to the
	// same query's 1-shard array-engine baseline.
	Agree bool `json:"agree"`
}

// ClusterFigure is the whole sweep plus the data-set footprint.
type ClusterFigure struct {
	Shards       []string             `json:"shards"`
	SelfHosted   bool                 `json:"self_hosted"`
	Facts        int                  `json:"facts,omitempty"`
	Measurements []ClusterMeasurement `json:"measurements"`
}

// clusterQueries are the paper's Query 1 consolidation and Query 2
// selection against the datagen schema (fact(d0..), dimI(dI, hI1, hI2);
// hierarchy values are "A0", "A1", ... whatever the seed).
var clusterQueries = []struct{ name, sql string }{
	{"q1-consolidate", `select sum(volume), dim0.h01, dim1.h11
from fact, dim0, dim1
where fact.d0 = dim0.d0 and fact.d1 = dim1.d1
group by h01, h11`},
	{"q2-select", `select sum(volume), count(*), dim1.h11
from fact, dim0, dim1
where dim0.h01 = 'A0' and fact.d0 = dim0.d0 and fact.d1 = dim1.d1
group by h11`},
}

var clusterEngines = []struct {
	name   string
	engine client.Engine
}{
	{"array", client.Array},
	{"starjoin", client.StarJoin},
	{"bitmap", client.Bitmap},
}

// RunCluster executes the sweep. Self-hosting builds one in-memory
// database shared by every shard server — each shard owning a full copy
// is exactly the cluster's data model, so in-process sharing changes
// nothing but the socket count.
func RunCluster(opts ClusterOptions) (*ClusterFigure, error) {
	if opts.MaxShards <= 0 {
		opts.MaxShards = 3
	}
	if opts.Trials <= 0 {
		opts.Trials = 3
	}
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	fig := &ClusterFigure{Shards: opts.Shards}
	if len(opts.Shards) == 0 {
		fig.SelfHosted = true
		db, facts, err := buildClusterDB(opts.Scale, opts.Seed)
		if err != nil {
			return nil, err
		}
		defer db.Close()
		fig.Facts = facts
		for i := 0; i < opts.MaxShards; i++ {
			srv := server.New(server.Local{DB: db}, server.Config{Addr: "127.0.0.1:0"})
			if err := srv.Start(); err != nil {
				return nil, fmt.Errorf("shard server %d: %w", i, err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			fig.Shards = append(fig.Shards, srv.Addr().String())
		}
	}

	ctx := context.Background()
	// The agreement baseline: each query's rows on 1 shard, array engine.
	baseline := map[string][]client.Row{}
	for n := 1; n <= len(fig.Shards); n++ {
		co, err := cluster.New(cluster.Config{Shards: fig.Shards[:n]})
		if err != nil {
			return nil, err
		}
		for _, q := range clusterQueries {
			for _, e := range clusterEngines {
				var best *cluster.Result
				for t := 0; t < opts.Trials; t++ {
					res, err := co.Query(ctx, q.sql, e.engine, cluster.QueryOpts{})
					if err != nil {
						co.Close()
						return nil, fmt.Errorf("%s on %s over %d shards: %w", q.name, e.name, n, err)
					}
					if best == nil || res.Elapsed < best.Elapsed {
						best = res
					}
				}
				if n == 1 && e.engine == client.Array {
					baseline[q.name] = best.Rows
				}
				m := ClusterMeasurement{
					Query:     q.name,
					Engine:    e.name,
					Shards:    n,
					Plan:      best.Plan,
					ElapsedNS: best.Elapsed.Nanoseconds(),
					ScatterNS: best.ScatterNS,
					GatherNS:  best.GatherNS,
					Rows:      len(best.Rows),
					Agree:     rowsEqual(best.Rows, baseline[q.name]),
				}
				for _, rep := range best.Reports {
					m.WaitNS = append(m.WaitNS, rep.WaitNS)
				}
				fig.Measurements = append(fig.Measurements, m)
			}
		}
		co.Close()
	}
	return fig, nil
}

func buildClusterDB(scale float64, seed int64) (*repro.DB, int, error) {
	cfg := datagen.Config{
		DimSizes:   []int{60, 60, 60},
		Density:    0.1,
		DistinctH1: []int{10, 10, 10},
		DistinctH2: []int{4, 4, 4},
		Seed:       seed,
	}
	if scale < 1 {
		for i, d := range cfg.DimSizes {
			if nd := int(float64(d)*scale + 0.5); nd >= 4 {
				cfg.DimSizes[i] = nd
			} else {
				cfg.DimSizes[i] = 4
			}
		}
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	db, err := repro.Open(repro.Options{})
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*repro.DB, int, error) {
		db.Close()
		return nil, 0, err
	}
	if err := db.CreateStarSchema(ds.Schema()); err != nil {
		return fail(err)
	}
	for dim := range ds.Schema().Dimensions {
		dim := dim
		name := ds.Schema().Dimensions[dim].Name
		err := db.LoadDimensionFunc(name, func(emit func(int64, []string) error) error {
			return ds.EachDimRow(dim, emit)
		})
		if err != nil {
			return fail(err)
		}
	}
	if err := db.LoadFacts(ds.Facts()); err != nil {
		return fail(err)
	}
	if err := db.BuildArray(repro.ArrayConfig{}); err != nil {
		return fail(err)
	}
	if err := db.BuildBitmapIndexes(); err != nil {
		return fail(err)
	}
	return db, ds.NumFacts(), nil
}

func rowsEqual(a, b []client.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sum != b[i].Sum || a[i].Count != b[i].Count ||
			a[i].Min != b[i].Min || a[i].Max != b[i].Max {
			return false
		}
		if len(a[i].Groups) != len(b[i].Groups) {
			return false
		}
		for j := range a[i].Groups {
			if a[i].Groups[j] != b[i].Groups[j] {
				return false
			}
		}
	}
	return true
}

// WriteClusterTable renders the sweep as an aligned table, one line per
// (query, engine, shard count).
func WriteClusterTable(w io.Writer, fig *ClusterFigure) {
	host := "external"
	if fig.SelfHosted {
		host = fmt.Sprintf("self-hosted, %d facts", fig.Facts)
	}
	fmt.Fprintf(w, "cluster scatter-gather sweep over %d shard servers (%s)\n", len(fig.Shards), host)
	fmt.Fprintf(w, "%-16s %-9s %7s %12s %12s %12s %6s %6s\n",
		"query", "engine", "shards", "elapsed", "scatter", "gather", "rows", "agree")
	for _, m := range fig.Measurements {
		fmt.Fprintf(w, "%-16s %-9s %7d %12v %12v %12v %6d %6v\n",
			m.Query, m.Engine, m.Shards,
			time.Duration(m.ElapsedNS).Round(time.Microsecond),
			time.Duration(m.ScatterNS).Round(time.Microsecond),
			time.Duration(m.GatherNS).Round(time.Microsecond),
			m.Rows, m.Agree)
	}
}

// ClusterSnapshot is the machine-readable record of one cluster sweep
// (BENCH_cluster.json).
type ClusterSnapshot struct {
	Scale     float64   `json:"scale"`
	Trials    int       `json:"trials"`
	Seed      int64     `json:"seed"`
	WrittenAt time.Time `json:"written_at"`
	*ClusterFigure
}

// WriteClusterSnapshot writes BENCH_cluster.json into dir (created as
// needed) and returns the path.
func WriteClusterSnapshot(dir string, fig *ClusterFigure, opts ClusterOptions) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_cluster.json")
	data, err := json.MarshalIndent(&ClusterSnapshot{
		Scale:         opts.Scale,
		Trials:        opts.Trials,
		Seed:          opts.Seed,
		WrittenAt:     time.Now().UTC(),
		ClusterFigure: fig,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
