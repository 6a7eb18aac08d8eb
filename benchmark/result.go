package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// metricDef is one metric as BENCHMARK.json declares it. That file is
// the only place a metric's unit, direction and bound are written down;
// the program reads them from there.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// series is one metric of one workload over the runs of a result file.
type series struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Values  []float64 `json:"values"`  // one per run
	Samples []int     `json:"samples"` // per run: observations behind the value
}

func (s *series) add(v float64, samples int) {
	s.Values = append(s.Values, v)
	s.Samples = append(s.Samples, samples)
	sorted := sortedCopy(s.Values)
	s.Q1, s.Median, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
}

// workloadResult is everything a result file says about one workload.
type workloadResult struct {
	Why        string             `json:"why"`
	OlapdFlags []string           `json:"olapd_flags"`
	Runs       int                `json:"runs"`        // untraced: the end-to-end series
	TracedRuns int                `json:"traced_runs"` // the per-layer series
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	ErrorRate  float64            `json:"error_rate"`
	Valid      bool               `json:"valid"`
	Warnings   []string           `json:"warnings,omitempty"`
	EndToEnd   map[string]*series `json:"end_to_end,omitempty"`
	PerLayer   map[string]*series `json:"per_layer,omitempty"`
}

// environment is what a reader needs to judge whether two result files
// are comparable.
type environment struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	WarmupS    float64 `json:"warmup_s"`
	Setups     int     `json:"setups_per_run"`
	Started    string  `json:"started"`
}

type resultFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// sample is one run's value of one metric.
type sample struct {
	value float64
	n     int // observations behind it
}

// runMetrics collects one run's metrics by name, with the checks made
// and failed and the reasons the run's numbers should not be trusted.
type runMetrics struct {
	values            map[string]sample
	attempted, failed int
	warnings          []string
	invalid           bool
}

func newRunMetrics() *runMetrics { return &runMetrics{values: make(map[string]sample)} }

func (m *runMetrics) put(name string, value float64, n int) { m.values[name] = sample{value, n} }

func (m *runMetrics) warn(format string, args ...any) {
	m.warnings = append(m.warnings, fmt.Sprintf(format, args...))
}

// invalidate marks the run as measuring the generator or the scheduler
// rather than the system.
func (m *runMetrics) invalidate(format string, args ...any) {
	m.invalid = true
	m.warn("INVALID RUN: "+format, args...)
}

// fold adds one run's metrics to the series in into. defs names the
// metrics the run must have reported: one missing or one extra is a bug
// in the benchmark, not a measurement.
func (w *workloadResult) fold(m *runMetrics, defs []metricDef, into map[string]*series) error {
	for _, d := range defs {
		s, ok := m.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if into[d.Name] == nil {
			into[d.Name] = &series{Unit: d.Unit}
		}
		into[d.Name].add(s.value, s.n)
	}
	if len(m.values) != len(defs) {
		declared := make(map[string]bool)
		for _, d := range defs {
			declared[d.Name] = true
		}
		for name := range m.values {
			if !declared[name] {
				return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
			}
		}
	}
	w.Attempted += m.attempted
	w.Failed += m.failed
	w.ErrorRate = float64(w.Failed) / float64(max(w.Attempted, 1))
	w.Valid = w.Valid && !m.invalid
	w.Warnings = append(w.Warnings, m.warnings...)
	return nil
}

// printRun prints every metric of one run by name and unit.
func printRun(out io.Writer, workload string, m *runMetrics, defs []metricDef) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		s := m.values[d.Name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\tn=%d\n", workload, d.Name, s.value, d.Unit, s.n)
	}
	tw.Flush()
	fmt.Fprintf(out, "%s: %d checks, %d failed\n", workload, m.attempted, m.failed)
	for _, w := range m.warnings {
		fmt.Fprintf(out, "%s: warning: %s\n", workload, w)
	}
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func contractLine(m *runMetrics, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{m.values[d.Name].value, d.Unit}
	}
	raw, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{m.failed == 0, max(m.attempted, 1), m.failed, metrics})
	return string(raw)
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantileNS is quantile over nanosecond samples, which it sorts.
func quantileNS(ns []int64, q float64) float64 {
	v := make([]float64, len(ns))
	for i, x := range ns {
		v[i] = float64(x)
	}
	sort.Float64s(v)
	return quantile(v, q)
}

// verdict compares a metric between a base and a candidate result file.
// worseBy is the candidate's relative change in the metric's bad
// direction; spread is the wider of the two sides' quartile distances as
// a share of the median. The bound is the smallest change the benchmark
// claims to resolve, in either direction; a spread beyond it means these
// runs cannot resolve even that.
func verdict(d metricDef, base, cand *series) (ratio, worseBy, spread float64, v string) {
	if base.Median == 0 {
		return 0, 0, 0, "unresolved"
	}
	ratio = cand.Median / base.Median
	worseBy = ratio - 1
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	spread = (base.Q3 - base.Q1) / base.Median
	if cand.Median != 0 {
		spread = max(spread, (cand.Q3-cand.Q1)/cand.Median)
	}
	switch {
	case d.Bound == 0:
		v = "-" // a per-layer metric: no bound, so no verdict
	case spread > d.Bound:
		v = "unresolved"
	case worseBy > d.Bound:
		v = "worse"
	case worseBy < -d.Bound:
		v = "better"
	default:
		v = "same"
	}
	return
}

// compare prints, per workload and metric, both medians, the ratio with
// its base, and the verdict. It reports whether any metric got worse.
func compare(out io.Writer, ct *contract, basePath, candPath string) (worse bool, err error) {
	var base, cand resultFile
	for path, into := range map[string]*resultFile{basePath: &base, candPath: &cand} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, into); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase\tcandidate\tcandidate/base\tworse by\tspread\tbound\tverdict\n")
	for _, w := range ct.Workloads {
		b, c := base.Workloads[w.Name], cand.Workloads[w.Name]
		if b == nil || c == nil {
			continue
		}
		row := func(d metricDef, bs, cs *series) {
			if bs == nil || cs == nil {
				return
			}
			ratio, worseBy, spread, v := verdict(d, bs, cs)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f (base %.6g)\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				w.Name, d.Name, d.Unit, bs.Median, cs.Median, ratio, bs.Median, 100*worseBy, 100*spread, 100*d.Bound, v)
		}
		for _, d := range ct.EndToEnd {
			row(d, b.EndToEnd[d.Name], c.EndToEnd[d.Name])
		}
		for _, d := range ct.PerLayer {
			row(d, b.PerLayer[d.Name], c.PerLayer[d.Name])
		}
		if c.Failed > b.Failed {
			worse = true
			fmt.Fprintf(tw, "%s\terror_rate\tshare\t%.6g\t%.6g\t\t\t\tany rise\tworse\n", w.Name, b.ErrorRate, c.ErrorRate)
		}
	}
	return worse, tw.Flush()
}
