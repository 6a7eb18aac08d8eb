// Command olapbench regenerates the paper's evaluation figures and
// tables (§5) and the ablations: it generates the synthetic data sets,
// loads them into the engine, runs every plan cold, and prints
// paper-style series.
//
// Usage:
//
//	olapbench [-fig all|4|5|6|7|8|9|10|storage|ablations|cluster|codec] [-scale 1.0]
//	          [-trials 3] [-warm] [-seed N]
//
// Absolute times depend on the machine; the shapes (who wins, by what
// factor, where the array/bitmap crossover falls) are what reproduce the
// paper. -scale 0.25 shrinks every data set for a quick look.
//
// -fig cluster benchmarks the scatter-gather coordinator, sweeping shard
// counts 1..3 over self-hosted in-process shard servers (or the running
// olapd data servers named by -connect a,b,c) and recording the
// scatter/gather wait breakdown per engine.
//
// -fig codec sweeps density x codec over one large chunk (encoded
// size, raw decode time, warm Query 1 latency), locating the
// chunk-offset / difference-sequence crossover and checking the
// adaptive selector never loses to a forced codec.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/bench/clusterbench"
	"repro/internal/bench/codecbench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 4..10, storage, ablations, cluster, codec")
	scale := flag.Float64("scale", 1.0, "data set scale factor (1.0 = paper size)")
	trials := flag.Int("trials", 3, "trials per measurement (fastest kept)")
	warm := flag.Bool("warm", false, "skip the cold-cache protocol")
	seed := flag.Int64("seed", 0, "data generation seed (0 = fixed default)")
	diskDir := flag.String("disk", "", "back environments with volume files in this directory (default: in-memory)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	snapshotDir := flag.String("snapshot", "", "write BENCH_<fig>.json snapshots into this directory")
	workersFlag := flag.String("workers", "", "comma-separated intra-query degrees to sweep warm on the array series (e.g. 1,2,4)")
	connect := flag.String("connect", "", "cluster figure: comma-separated running shard olapd addresses (default: self-hosted in-process shards)")
	maxShards := flag.Int("max-shards", 3, "cluster figure: largest self-hosted shard count in the sweep")
	flag.Parse()

	workers, err := parseWorkers(*workersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "olapbench: %v\n", err)
		os.Exit(2)
	}

	// Fail fast on an unwritable snapshot directory rather than
	// discovering it after minutes of benchmarking.
	if *snapshotDir != "" {
		if err := os.MkdirAll(*snapshotDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "olapbench: snapshot dir: %v\n", err)
			os.Exit(1)
		}
	}

	h := bench.NewHarness(bench.Options{
		Scale:   *scale,
		Trials:  *trials,
		Warm:    *warm,
		Seed:    *seed,
		DiskDir: *diskDir,
		Workers: workers,
	})

	type runner struct {
		name string
		run  func() error
	}
	figure := func(name string, f func() (*bench.Figure, error)) runner {
		return runner{name: name, run: func() error {
			fmt.Fprintf(os.Stderr, "building and running %s...\n", name)
			fig, err := f()
			if err != nil {
				return err
			}
			// A requested -workers sweep that matched no query in this
			// figure must warn, not silently fall through: the snapshot
			// would otherwise look complete while missing the column.
			if len(workers) > 0 && !figureHasSweep(fig) {
				fmt.Fprintf(os.Stderr, "olapbench: warning: -workers sweep matched no queries in %s (no array-engine series ran)\n", name)
			}
			if *csv {
				bench.WriteFigureCSV(os.Stdout, fig)
			} else {
				bench.WriteFigure(os.Stdout, fig)
			}
			if *snapshotDir != "" {
				path, err := bench.WriteFigureSnapshot(*snapshotDir, fig, h.Opts)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "snapshot: %s\n", path)
			}
			return nil
		}}
	}
	all := []runner{
		figure("fig4", h.Figure4),
		figure("fig5", h.Figure5),
		figure("fig6", h.Figure6),
		figure("fig7", h.Figure7),
		figure("fig8", h.Figure8),
		figure("fig9", h.Figure9),
		figure("fig10", h.Figure10),
		{name: "storage", run: func() error {
			fmt.Fprintln(os.Stderr, "building and running storage table...")
			rows, err := h.StorageTable()
			if err != nil {
				return err
			}
			if *csv {
				bench.WriteStorageCSV(os.Stdout, rows)
			} else {
				bench.WriteStorageTable(os.Stdout, rows)
			}
			if *snapshotDir != "" {
				path, err := bench.WriteStorageSnapshot(*snapshotDir, rows, h.Opts)
				if err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "snapshot: %s\n", path)
			}
			return nil
		}},
		figure("ablation-codec", h.CodecAblation),
		figure("ablation-chunkshape", h.ChunkShapeAblation),
		figure("ablation-enumeration", h.EnumerationAblation),
		figure("ablation-factfile", h.FactFileAblation),
		figure("ablation-bufferpool", h.BufferPoolAblation),
	}
	// The codec sweep only runs when asked for by name: it builds one
	// database per (density, codec) pair, which "all" should not imply.
	if strings.ToLower(*fig) == "codec" {
		kopts := codecbench.CodecOptions{Scale: *scale}
		fmt.Fprintln(os.Stderr, "building and running codec sweep...")
		kfig, err := codecbench.RunCodec(kopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olapbench: codec: %v\n", err)
			os.Exit(1)
		}
		codecbench.WriteCodecTable(os.Stdout, kfig)
		if *snapshotDir != "" {
			path, err := codecbench.WriteCodecSnapshot(*snapshotDir, kfig, kopts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "olapbench: codec: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "snapshot: %s\n", path)
		}
		return
	}
	// The cluster sweep only runs when asked for by name: it spins up
	// shard servers and a coordinator, which "all" should not imply.
	if strings.ToLower(*fig) == "cluster" {
		copts := clusterbench.ClusterOptions{
			Shards:    splitAddrs(*connect),
			MaxShards: *maxShards,
			Trials:    *trials,
			Scale:     *scale,
			Seed:      *seed,
		}
		fmt.Fprintln(os.Stderr, "building and running cluster sweep...")
		cfig, err := clusterbench.RunCluster(copts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "olapbench: cluster: %v\n", err)
			os.Exit(1)
		}
		clusterbench.WriteClusterTable(os.Stdout, cfig)
		if *snapshotDir != "" {
			path, err := clusterbench.WriteClusterSnapshot(*snapshotDir, cfig, copts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "olapbench: cluster: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "snapshot: %s\n", path)
		}
		return
	}

	want := strings.ToLower(*fig)
	matched := false
	for _, r := range all {
		ok := false
		switch want {
		case "all":
			ok = true
		case "ablations", "ablation":
			ok = strings.HasPrefix(r.name, "ablation")
		default:
			ok = r.name == want || r.name == "fig"+want
		}
		if !ok {
			continue
		}
		matched = true
		if err := r.run(); err != nil {
			fmt.Fprintf(os.Stderr, "olapbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "olapbench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

// splitAddrs parses -connect: comma-separated addresses, empty entries
// dropped.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// parseWorkers parses the -workers flag: a comma-separated list of
// positive degrees. Empty means no sweep.
func parseWorkers(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// figureHasSweep reports whether any measurement carries sweep data.
func figureHasSweep(fig *bench.Figure) bool {
	for _, p := range fig.Points {
		for _, m := range p.M {
			if len(m.WorkersSweep) > 0 {
				return true
			}
		}
	}
	return false
}
