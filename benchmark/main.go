// Command benchmark is the repository's benchmark: a client of the
// system that builds the paper's Data Set 1 through the root API, serves
// it from a real olapd child process, drives one of four workloads over
// the wire, checks every reply against a model of the data, and prints
// every metric BENCHMARK.json declares. See README.md.
//
// It imports package repro and repro/client and nothing under
// repro/internal, so the refactors it referees cannot break it.
//
//	bash benchmark/run.sh --workload scan --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --runs 5 --trace 2 --out benchmark/results/new.json
//	bash benchmark/run.sh --compare benchmark/results/baseline.json benchmark/results/new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// config is what every run of one invocation shares.
type config struct {
	olapd   string
	dataDir string
	seed    int64
	window  time.Duration // measured, after warm-up
	setups  int           // timed set-ups per run; the median is reported
	clients int
}

const (
	warmup       = 5 * time.Second
	setupsPerRun = 3
	traceDir     = "benchmark/out"
	minQueries   = 1000
	maxThink     = 0.25
)

func main() {
	workload := flag.String("workload", "all", "scan, select, dashboard, htap or all")
	seed := flag.Int64("seed", 1, "seed of the data set and of the statement sampling")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run and layer probes, 2 = both")
	runs := flag.Int("runs", 1, "untraced runs per workload; a result file's quartiles come from them")
	out := flag.String("out", "", "write the result file here")
	olapd := flag.String("olapd", ".bench_build/olapd", "olapd binary (run.sh builds it)")
	cmp := flag.String("compare", "", "compare this result file (the base) with the one named after it")
	flag.Parse()

	ct, err := readContract("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if *cmp != "" {
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("usage: -compare base.json candidate.json"))
		}
		worse, err := compare(os.Stdout, ct, *cmp, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds == 0 {
		*seconds = float64(ct.RunSeconds)
	}
	if _, err := os.Stat(*olapd); err != nil {
		fatal(fmt.Errorf("no olapd binary (bash benchmark/run.sh builds it): %w", err))
	}
	cfg := config{
		olapd:   *olapd,
		dataDir: ".bench_build/data",
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		setups:  setupsPerRun,
		clients: min(runtime.NumCPU(), 4),
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		fatal(err)
	}

	file := resultFile{
		Env: environment{
			Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GitCommit: gitCommit(), Seed: cfg.seed, Clients: cfg.clients, Seconds: *seconds,
			WarmupS: warmup.Seconds(), Setups: setupsPerRun, Started: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: make(map[string]*workloadResult),
	}
	var last string
	ran := 0
	for _, def := range workloadDefs {
		if *workload != "all" && *workload != def.name {
			continue
		}
		ran++
		wr := &workloadResult{
			OlapdFlags: def.flags, Valid: true,
			EndToEnd: make(map[string]*series), PerLayer: make(map[string]*series),
		}
		for _, w := range ct.Workloads {
			if w.Name == def.name {
				wr.Why = w.Why
			}
		}
		file.Workloads[def.name] = wr
		if *trace != 1 {
			for i := 0; i < *runs; i++ {
				m, err := measure(cfg, def)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", def.name, err))
				}
				printRun(os.Stdout, def.name, m, ct.EndToEnd)
				if err := wr.fold(m, ct.EndToEnd, wr.EndToEnd); err != nil {
					fatal(err)
				}
				wr.Runs++
				last = contractLine(m, ct.EndToEnd)
			}
		}
		if *trace != 0 {
			m, err := measureTraced(cfg, def)
			if err != nil {
				fatal(fmt.Errorf("%s traced: %w", def.name, err))
			}
			printRun(os.Stdout, def.name, m, ct.PerLayer)
			if err := wr.fold(m, ct.PerLayer, wr.PerLayer); err != nil {
				fatal(err)
			}
			wr.TracedRuns++
			last = contractLine(m, ct.PerLayer)
		}
	}
	if ran == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if ran == 1 {
		fmt.Println(last)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func ms(ns float64) float64 { return ns / 1e6 }

// measure makes one untraced run and derives the end-to-end metrics.
func measure(cfg config, def workloadDef) (*runMetrics, error) {
	res, err := runServed(cfg, def, nil)
	if err != nil {
		return nil, err
	}
	m := newRunMetrics()
	w := &res.window
	m.attempted = w.attempted + res.checks
	m.failed = w.failed + res.checkFailures
	replies := len(w.lat)
	if replies == 0 {
		return nil, fmt.Errorf("no correct reply in the measured window")
	}
	setups := make([]float64, len(res.setup))
	for i, d := range res.setup {
		setups[i] = d.Seconds()
	}
	m.put("setup_s", median(setups), len(setups))
	m.put("qps", sliceMedian(res.slices, qps), replies)
	m.put("p50_ms", sliceMedian(res.slices, latency(0.50)), replies)
	m.put("p95_ms", sliceMedian(res.slices, latency(0.95)), replies)
	m.put("cpu_ms_per_query", sliceMedian(res.slices, func(s *slice) (float64, bool) {
		return ms(float64(s.serverCPU)) / float64(len(s.lat)), len(s.lat) > 0
	}), replies)
	m.put("rss_mb", sliceMedian(res.slices, func(s *slice) (float64, bool) {
		return float64(s.rss) / (1 << 20), true
	}), len(res.slices))
	m.put("db_bytes_per_cell", float64(res.dbBytes)/float64(res.validCells), 1)
	guard(m, w, minQueries)
	return m, nil
}

// sliceMedian is the median over the slices for which f has a value.
func sliceMedian(slices []slice, f func(*slice) (float64, bool)) float64 {
	var vals []float64
	for i := range slices {
		if v, ok := f(&slices[i]); ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// qps is a slice's correct replies per second.
func qps(s *slice) (float64, bool) { return float64(len(s.lat)) / s.dur.Seconds(), true }

// latency is a slice's q-quantile of round-trip time in milliseconds.
func latency(q float64) func(*slice) (float64, bool) {
	return func(s *slice) (float64, bool) { return ms(quantileNS(s.lat, q)), len(s.lat) > 0 }
}

// guard flags a run whose numbers would measure the load generator or
// the scheduler rather than the system. It returns the generator's share
// of the readers' time and the writer's lateness.
func guard(m *runMetrics, w *window, least int) (thinkShare, lateP95 float64) {
	if len(w.lat) < least {
		m.invalidate("%d queries completed, fewer than %d", len(w.lat), least)
	}
	if total := w.busy + w.think; total > 0 {
		thinkShare = float64(w.think) / float64(total)
	}
	if thinkShare > maxThink {
		m.invalidate("readers spent %.0f%% of their time in the generator, more than %.0f%%", 100*thinkShare, 100*maxThink)
	}
	lateP95 = ms(quantileNS(w.late, 0.95)) // 0 when no writer ran
	if lateP95 > ms(float64(batchInterval)) {
		m.invalidate("the writer ran %.1f ms late at p95, more than one batch interval", lateP95)
	}
	return thinkShare, lateP95
}

// measureTraced makes one run that measures for half as long with span
// recording on in every second slice, then runs the layer probes and
// writes the spans.
func measureTraced(cfg config, def workloadDef) (*runMetrics, error) {
	cfg.window /= 2
	cfg.setups = 1
	rec := newRecorder()
	res, err := runServed(cfg, def, rec)
	if err != nil {
		return nil, err
	}
	m := newRunMetrics()
	w := &res.window
	m.attempted = w.attempted + res.checks
	m.failed = w.failed + res.checkFailures
	if len(w.lat) == 0 {
		return nil, fmt.Errorf("no correct reply in the measured window")
	}

	m.put("client.ttfb_ms", ms(quantileNS(w.ttfb, 0.5)), len(w.ttfb))
	m.put("client.p99_ms", ms(quantileNS(w.lat, 0.99)), len(w.lat))
	hits, okH := w.counters["cache_result_hits_total"]
	misses, okM := w.counters["cache_result_misses_total"]
	switch {
	case def.cacheOff:
		// The sessions opted out (and olapd has no cache): nothing can hit.
		m.put("cache.result_hit_share", 0, 0)
	case !okH || !okM:
		// -1, never 0: a renamed counter must not read as a cold cache.
		m.warn("cache.result_hit_share: olapd's /metrics has no cache_result_hits_total or cache_result_misses_total")
		m.put("cache.result_hit_share", -1, 0)
	case hits+misses == 0:
		m.put("cache.result_hit_share", 0, 0)
	default:
		m.put("cache.result_hit_share", hits/(hits+misses), int(hits+misses))
	}
	m.put("delta.ingest_ack_p50_ms", ms(quantileNS(w.acks, 0.50)), len(w.acks)) // 0 when no writer ran
	m.put("delta.ingest_ack_p95_ms", ms(quantileNS(w.acks, 0.95)), len(w.acks))
	thinkShare, lateP95 := guard(m, w, minQueries/2) // half the window
	m.put("gen.late_p95_ms", lateP95, len(w.late))
	m.put("gen.think_share", thinkShare, len(w.lat))
	m.put("gen.client_cpu_share", float64(w.clientCPU)/float64(w.clientCPU+w.serverCPU), 1)
	var plain, traced []slice
	for i, s := range res.slices {
		if i%2 == 1 {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	m.put("trace.overhead_share", 1-sliceMedian(traced, qps)/sliceMedian(plain, qps), len(traced))

	if err := runProbes(cfg, m, rec); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := rec.write(fmt.Sprintf("%s/trace-%s.json", traceDir, def.name)); err != nil {
		return nil, err
	}
	return m, nil
}
