package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// FigureSnapshot is the machine-readable record of one figure run,
// written as BENCH_<id>.json so successive runs can be diffed (did the
// crossover move? did estimated I/O drift from actual?).
type FigureSnapshot struct {
	ID        string    `json:"id"`
	Title     string    `json:"title"`
	XName     string    `json:"x_name"`
	Scale     float64   `json:"scale"`
	Trials    int       `json:"trials"`
	Warm      bool      `json:"warm"`
	Seed      int64     `json:"seed"`
	WrittenAt time.Time `json:"written_at"`
	// CacheHitRate is the fraction of warm reruns that were served from
	// the query's result cache (1.0 when every figure query hit).
	CacheHitRate float64         `json:"cache_hit_rate"`
	Points       []PointSnapshot `json:"points"`
	Notes        []string        `json:"notes,omitempty"`
}

// PointSnapshot is one x-position with every series' measurement.
type PointSnapshot struct {
	X      float64                        `json:"x"`
	Label  string                         `json:"label"`
	Series map[string]MeasurementSnapshot `json:"series"`
}

// MeasurementSnapshot pairs one run's actuals with the planner's
// estimates for the same query.
type MeasurementSnapshot struct {
	Plan          string  `json:"plan"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	Rows          int     `json:"rows"`
	PhysicalReads uint64  `json:"physical_reads"`
	LogicalReads  uint64  `json:"logical_reads"`
	EstIO         float64 `json:"est_io"`
	EstNS         float64 `json:"est_ns"`
	EstRows       int64   `json:"est_rows"`
	// CachedElapsedNS is the wall time of the warm rerun through the
	// query cache; CacheHit reports whether it actually hit.
	CachedElapsedNS int64 `json:"cached_elapsed_ns"`
	CacheHit        bool  `json:"cache_hit"`
	// WorkersSweep holds the -workers sweep timings (warm, per degree);
	// ParallelSpeedup is elapsed(degree 1) / best parallel elapsed.
	WorkersSweep    []WorkerTimingSnapshot `json:"workers_sweep,omitempty"`
	ParallelSpeedup float64                `json:"parallel_speedup,omitempty"`
	// AllocBytes/AllocObjects are the GC-heap cost of the measured run
	// (MemStats deltas around Execute).
	AllocBytes   uint64       `json:"alloc_bytes"`
	AllocObjects uint64       `json:"alloc_objects"`
	Metrics      core.Metrics `json:"metrics"`
	// LatencyP50NS/LatencyP95NS are percentiles across the measured
	// trials (equal to ElapsedNS when trials == 1).
	LatencyP50NS int64 `json:"latency_p50_ns,omitempty"`
	LatencyP95NS int64 `json:"latency_p95_ns,omitempty"`
	// Wait is the best trial's flight-recorder wait breakdown.
	Wait *WaitSnapshot `json:"wait,omitempty"`
}

// WaitSnapshot is a Measurement's wait breakdown in nanoseconds.
type WaitSnapshot struct {
	AdmissionNS int64 `json:"admission_ns,omitempty"`
	CacheNS     int64 `json:"cache_wait_ns,omitempty"`
	PlanNS      int64 `json:"plan_ns,omitempty"`
	ExecNS      int64 `json:"exec_ns,omitempty"`
	SortNS      int64 `json:"sort_ns,omitempty"`
}

// WorkerTimingSnapshot is one degree of a -workers sweep.
type WorkerTimingSnapshot struct {
	Workers   int   `json:"workers"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// Snapshot converts a figure and the options that produced it.
func Snapshot(fig *Figure, opts Options) *FigureSnapshot {
	fs := &FigureSnapshot{
		ID:        fig.ID,
		Title:     fig.Title,
		XName:     fig.XName,
		Scale:     opts.scale(),
		Trials:    opts.Trials,
		Warm:      opts.Warm,
		Seed:      opts.seed(),
		WrittenAt: time.Now().UTC(),
		Notes:     fig.Notes,
	}
	hits, total := 0, 0
	for _, p := range fig.Points {
		ps := PointSnapshot{X: p.X, Label: p.XLabel, Series: make(map[string]MeasurementSnapshot, len(p.M))}
		for s, m := range p.M {
			ms := MeasurementSnapshot{
				Plan:            m.Plan,
				ElapsedNS:       m.Elapsed.Nanoseconds(),
				Rows:            m.Rows,
				PhysicalReads:   m.IO.PhysicalReads,
				LogicalReads:    m.IO.LogicalReads,
				EstIO:           m.Metrics.EstCostIO,
				EstNS:           m.Metrics.EstNS,
				EstRows:         m.Metrics.EstRows,
				CachedElapsedNS: m.CachedElapsed.Nanoseconds(),
				CacheHit:        m.CacheHit,
				ParallelSpeedup: m.ParallelSpeedup,
				AllocBytes:      m.AllocBytes,
				AllocObjects:    m.AllocObjects,
				Metrics:         m.Metrics,
				LatencyP50NS:    m.LatencyP50.Nanoseconds(),
				LatencyP95NS:    m.LatencyP95.Nanoseconds(),
			}
			if w := m.Wait; w != (WaitBreakdown{}) {
				ms.Wait = &WaitSnapshot{
					AdmissionNS: w.Admission.Nanoseconds(),
					CacheNS:     w.Cache.Nanoseconds(),
					PlanNS:      w.Plan.Nanoseconds(),
					ExecNS:      w.Exec.Nanoseconds(),
					SortNS:      w.Sort.Nanoseconds(),
				}
			}
			for _, wt := range m.WorkersSweep {
				ms.WorkersSweep = append(ms.WorkersSweep, WorkerTimingSnapshot{
					Workers: wt.Workers, ElapsedNS: wt.Elapsed.Nanoseconds(),
				})
			}
			ps.Series[s] = ms
			total++
			if m.CacheHit {
				hits++
			}
		}
		fs.Points = append(fs.Points, ps)
	}
	if total > 0 {
		fs.CacheHitRate = float64(hits) / float64(total)
	}
	return fs
}

// WriteFigureSnapshot writes BENCH_<id>.json into dir (created as
// needed) and returns the path.
func WriteFigureSnapshot(dir string, fig *Figure, opts Options) (string, error) {
	return writeSnapshotJSON(dir, fig.ID, Snapshot(fig, opts))
}

// StorageSnapshot is the machine-readable record of the storage
// comparison table (§3.2, §5.5.1).
type StorageSnapshot struct {
	Scale     float64      `json:"scale"`
	Seed      int64        `json:"seed"`
	WrittenAt time.Time    `json:"written_at"`
	Rows      []StorageRow `json:"rows"`
}

// WriteStorageSnapshot writes BENCH_storage.json into dir (created as
// needed) and returns the path.
func WriteStorageSnapshot(dir string, rows []StorageRow, opts Options) (string, error) {
	return writeSnapshotJSON(dir, "storage", &StorageSnapshot{
		Scale:     opts.scale(),
		Seed:      opts.seed(),
		WrittenAt: time.Now().UTC(),
		Rows:      rows,
	})
}

func writeSnapshotJSON(dir, id string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", id))
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
