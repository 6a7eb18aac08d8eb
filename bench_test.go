package repro

// One testing.B benchmark per figure of the paper's evaluation section,
// plus the storage table and the ablations. Environments (generated data,
// loaded fact file, built array, bitmap indices) are constructed once per
// process and shared across benchmarks; only the measured query runs
// inside the timer, cold-cache per iteration as in the paper.
//
// Full-size data sets (640 000 facts) are used by default; set
// REPRO_BENCH_SCALE (e.g. 0.25) to shrink them for quick runs. The
// figure-regeneration CLI (cmd/olapbench) prints the full paper-style
// tables; these benchmarks expose the same series to `go test -bench`.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/query"
)

// benchSelect dispatches to the optimized or naive array selection
// algorithm for the enumeration ablation.
func benchSelect(arr *array.Array, spec *query.Spec, naive bool) (*core.Result, core.Metrics, error) {
	if naive {
		return core.ArraySelectConsolidateNaive(arr, spec.Selections, spec.Group)
	}
	return core.ArrayConsolidate(context.Background(), arr, core.ScanSpec{Selections: spec.Selections, Group: spec.Group})
}

var (
	harnessOnce sync.Once
	harness     *bench.Harness
)

func benchHarness() *bench.Harness {
	harnessOnce.Do(func() {
		scale := 1.0
		if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		harness = bench.NewHarness(bench.Options{Scale: scale})
	})
	return harness
}

// benchEnv builds (or reuses) the environment for a data config.
func benchEnv(b *testing.B, cfg bench.EnvConfig) *bench.Env {
	b.Helper()
	env, err := benchHarnessEnv(cfg)
	if err != nil {
		b.Fatalf("build env: %v", err)
	}
	return env
}

// benchHarnessEnv funnels through the harness cache.
func benchHarnessEnv(cfg bench.EnvConfig) (*bench.Env, error) {
	return benchHarness().Env(cfg)
}

// runQuery measures cold executions of spec on the engine.
func runQuery(b *testing.B, env *bench.Env, spec *query.Spec, engine exec.Engine) {
	b.Helper()
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		m, err := env.Run(spec, engine, true, 1)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		rows = m.Rows
	}
	b.ReportMetric(float64(rows), "rows")
}

// ds1 returns the scaled Data Set 1 variant.
func ds1(b *testing.B, variant int) datagen.Config {
	b.Helper()
	cfg, err := benchHarness().DataSet1(variant)
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkFigure4 regenerates Figure 4: Query 1 over Data Set 1
// (640 000 valid cells; fourth dimension 50 / 100 / 1000), array
// consolidation vs relational star join.
func BenchmarkFigure4(b *testing.B) {
	for variant := 0; variant < 3; variant++ {
		data := ds1(b, variant)
		env := benchEnv(b, bench.EnvConfig{Data: data})
		spec := env.Query1Spec()
		d4 := data.DimSizes[len(data.DimSizes)-1]
		b.Run(fmt.Sprintf("d4=%d/array", d4), func(b *testing.B) {
			runQuery(b, env, spec, exec.ArrayEngine)
		})
		b.Run(fmt.Sprintf("d4=%d/starjoin", d4), func(b *testing.B) {
			runQuery(b, env, spec, exec.StarJoinEngine)
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: Query 1 over Data Set 2
// (40×40×40×100) as density grows from 0.5% to 20%.
func BenchmarkFigure5(b *testing.B) {
	for _, density := range []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.20} {
		data := benchHarness().DataSet2(density)
		env := benchEnv(b, bench.EnvConfig{Data: data})
		spec := env.Query1Spec()
		for name, engine := range map[string]exec.Engine{
			"array": exec.ArrayEngine, "starjoin": exec.StarJoinEngine,
		} {
			b.Run(fmt.Sprintf("rho=%.1f%%/%s", density*100, name), func(b *testing.B) {
				runQuery(b, env, spec, engine)
			})
		}
	}
}

// selectBench runs the Query 2/3 sweep shared by Figures 6-10.
func selectBench(b *testing.B, variant, selDims int, distincts []int) {
	for _, distinct := range distincts {
		data := datagen.WithSelectivity(ds1(b, variant), distinct)
		env := benchEnv(b, bench.EnvConfig{Data: data, BuildBitmaps: true})
		spec, err := env.SelectSpec(selDims)
		if err != nil {
			b.Fatal(err)
		}
		for name, engine := range map[string]exec.Engine{
			"array": exec.ArrayEngine, "bitmap": exec.BitmapEngine,
		} {
			b.Run(fmt.Sprintf("s=1over%d/%s", distinct, name), func(b *testing.B) {
				runQuery(b, env, spec, engine)
			})
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6: Query 2 (selection on four
// dimensions) on the 40×40×40×1000 array, array vs bitmap+fact-file.
func BenchmarkFigure6(b *testing.B) { selectBench(b, 2, 4, []int{2, 4, 10}) }

// BenchmarkFigure7 regenerates Figure 7: Query 2 on the 40×40×40×100
// array.
func BenchmarkFigure7(b *testing.B) { selectBench(b, 1, 4, []int{2, 4, 10}) }

// BenchmarkFigure8 regenerates Figure 8: the low-selectivity region of
// Figure 6, where the bitmap plan overtakes the array (paper: S ≈
// 0.00024).
func BenchmarkFigure8(b *testing.B) { selectBench(b, 2, 4, []int{5, 8, 10}) }

// BenchmarkFigure9 regenerates Figure 9: the low-selectivity region on
// the 40×40×40×100 array.
func BenchmarkFigure9(b *testing.B) { selectBench(b, 1, 4, []int{5, 8, 10}) }

// BenchmarkFigure10 regenerates Figure 10: Query 3 — selection on three
// dimensions — on the 40×40×40×100 array.
func BenchmarkFigure10(b *testing.B) { selectBench(b, 1, 3, []int{2, 4, 10}) }

// BenchmarkPlannerAuto measures the cost-based planner against every
// forced engine at three selectivities straddling the paper's crossover
// (S ≈ 0.00024) on the 40×40×40×100 data set: with distinct counts
// {2, 8, 10} on four selected dimensions, S = 1/d⁴ lands above, near,
// and below it. Auto should track the cheaper of array and bitmap on
// both sides; its reported plan name shows which one it picked.
func BenchmarkPlannerAuto(b *testing.B) {
	for _, distinct := range []int{2, 8, 10} {
		data := datagen.WithSelectivity(ds1(b, 1), distinct)
		env := benchEnv(b, bench.EnvConfig{Data: data, BuildBitmaps: true})
		spec, err := env.SelectSpec(4)
		if err != nil {
			b.Fatal(err)
		}
		for name, engine := range map[string]exec.Engine{
			"auto":     exec.Auto,
			"array":    exec.ArrayEngine,
			"starjoin": exec.StarJoinEngine,
			"bitmap":   exec.BitmapEngine,
		} {
			b.Run(fmt.Sprintf("s=1over%d^4/%s", distinct, name), func(b *testing.B) {
				runQuery(b, env, spec, engine)
			})
		}
	}
}

// BenchmarkStorage regenerates the §3.2/§5.5.1 storage comparison as
// custom metrics: bytes of the compressed array vs the fact file at 1%
// density (the paper's 6.5 MB vs 18.5 MB comparison point).
func BenchmarkStorage(b *testing.B) {
	data := ds1(b, 2) // 40×40×40×1000, 1% density
	env := benchEnv(b, bench.EnvConfig{Data: data})
	arr, err := env.Array()
	if err != nil {
		b.Fatal(err)
	}
	ff, err := env.FactFile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = arr.Store().EncodedBytes()
	}
	b.ReportMetric(float64(arr.Store().EncodedBytes()), "array-bytes")
	b.ReportMetric(float64(ff.SizeBytes()), "factfile-bytes")
	b.ReportMetric(float64(ff.SizeBytes())/float64(arr.Store().EncodedBytes()), "fact-to-array-ratio")
}

// BenchmarkAblationCodec compares the chunk codecs on Query 1 — the
// §3.3 design decision (chunk-offset compression instead of LZW).
func BenchmarkAblationCodec(b *testing.B) {
	data := benchHarness().DataSet2(0.05)
	for _, codec := range []string{"chunk-offset", "lzw", "dense"} {
		env := benchEnv(b, bench.EnvConfig{Data: data, Codec: codec})
		spec := env.Query1Spec()
		b.Run(codec, func(b *testing.B) {
			runQuery(b, env, spec, exec.ArrayEngine)
		})
	}
}

// BenchmarkCube compares the lattice-rollup data cube (one array scan +
// roll-ups, after [ZDN97]) against recomputing every cuboid from the
// array.
func BenchmarkCube(b *testing.B) {
	data := benchHarness().DataSet2(0.05)
	env := benchEnv(b, bench.EnvConfig{Data: data})
	arr, err := env.Array()
	if err != nil {
		b.Fatal(err)
	}
	spec := env.Query1Spec()
	b.Run("lattice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ArrayCube(arr, spec.Group); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.CubeNaive(arr, spec.Group); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelConsolidate measures the §6 future-work
// parallelization of the array consolidation.
func BenchmarkParallelConsolidate(b *testing.B) {
	data := ds1(b, 1)
	env := benchEnv(b, bench.EnvConfig{Data: data})
	arr, err := env.Array()
	if err != nil {
		b.Fatal(err)
	}
	spec := env.Query1Spec()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ArrayConsolidate(context.Background(), arr, core.ScanSpec{Group: spec.Group, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelQuery measures intra-query parallelism end to end:
// the Figure 6 consolidation workload (Query 1 on the 40×40×40×1000
// array) through the executor at degrees 1, 2, and 4, warm so the
// chunk fan-out — not page I/O — is what scales. The degree-1 and
// parallel rows are checked identical every iteration.
func BenchmarkParallelQuery(b *testing.B) {
	data := ds1(b, 2)
	env := benchEnv(b, bench.EnvConfig{Data: data})
	spec := env.Query1Spec()

	env.Ex.SetParallel(1)
	base, err := env.Ex.Execute(spec, exec.ArrayEngine)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Ex.SetParallel(0)

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			env.Ex.SetParallel(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qr, err := env.Ex.Execute(spec, exec.ArrayEngine)
				if err != nil {
					b.Fatal(err)
				}
				if !core.RowsEqual(qr.Rows, base.Rows) {
					b.Fatalf("workers=%d rows differ from sequential", workers)
				}
			}
		})
	}
}

// BenchmarkAblationEnumeration compares the §4.2 chunk-ordered
// cross-product enumeration with naive index-order enumeration.
func BenchmarkAblationEnumeration(b *testing.B) {
	data := datagen.WithSelectivity(ds1(b, 1), 5)
	env := benchEnv(b, bench.EnvConfig{Data: data})
	spec, err := env.SelectSpec(len(data.DimSizes))
	if err != nil {
		b.Fatal(err)
	}
	arr, err := env.Array()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chunk-ordered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := env.Ex.DropCaches(); err != nil {
				b.Fatal(err)
			}
			if _, _, err := benchSelect(arr, spec, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := env.Ex.DropCaches(); err != nil {
				b.Fatal(err)
			}
			if _, _, err := benchSelect(arr, spec, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}
