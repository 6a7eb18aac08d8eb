// Package codecbench benchmarks the chunk codec layer (olapbench -fig
// codec): a density x codec sweep over one large chunk, reporting
// encoded size, raw decode time, and warm Query 1 latency for every
// codec plus the adaptive per-chunk selector. The chunk capacity
// exceeds 65536 cells so difference-sequence entries take 3 bytes and
// the offset/diff-seq crossover lands mid-sweep (around density 1/3 for
// uniformly scattered cells) instead of degenerating to a tie. It lives
// apart from internal/bench because it drives a whole repro.DB for the
// query-latency leg, and the root package's tests import internal/bench,
// so importing repro from there would cycle.
package codecbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	repro "repro"
	"repro/internal/chunk"
	"repro/internal/storage"
)

// Modes is the sweep order: the adaptive selector first, then every
// forced codec.
var Modes = []string{
	chunk.CodecAdaptive,
	chunk.CodecOffset,
	chunk.CodecDiffSeq,
	chunk.CodecDense,
	chunk.CodecLZW,
}

// pickable is the subset of codecs the adaptive builder chooses among
// (LZW is excluded from selection: it trades decode CPU for size and
// its size is not computable without running the compressor).
var pickable = []string{chunk.CodecOffset, chunk.CodecDiffSeq, chunk.CodecDense}

// CodecOptions tunes the sweep.
type CodecOptions struct {
	// Scale multiplies the first two chunk dimensions; 0 = 1.0. Below
	// about 0.6 the chunk capacity drops under 65537 and the
	// difference entries shrink to 2 bytes, moving the crossover.
	Scale float64
	// Densities are the valid-cell fractions to sweep; nil = the
	// default six bands straddling the offset/diff-seq crossover.
	Densities []float64
}

func (o CodecOptions) withDefaults() CodecOptions {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if len(o.Densities) == 0 {
		o.Densities = []float64{0.01, 0.05, 0.2, 0.5, 0.75, 0.95}
	}
	return o
}

// Chunk shape before scaling: 48x48x36 = 82944 cells, comfortably past
// the 2-byte/3-byte difference-entry boundary at 65536.
var baseShape = []int{48, 48, 36}

// CodecPoint is one (density, codec) cell of the sweep.
type CodecPoint struct {
	Density float64 `json:"density"`
	Codec   string  `json:"codec"`
	// Picked is the chunk's tag after building — the codec the
	// adaptive mode chose, or just the forced codec's name.
	Picked string `json:"picked"`
	Cells  int    `json:"cells"`
	// EncodedBytes is the chunk payload size under this codec.
	EncodedBytes int64   `json:"encoded_bytes"`
	BytesPerCell float64 `json:"bytes_per_cell"`
	// DecodeNS is the mean wall time of one warm full-chunk decode
	// through Store.ReadChunk.
	DecodeNS int64 `json:"decode_ns"`
	// QueryNS is the best warm Query 1 (full consolidation) time on a
	// repro.DB whose array is built with this codec.
	QueryNS int64 `json:"query_ns"`
	// Sum is the query's total, identical across codecs by
	// construction (RunCodec verifies).
	Sum int64 `json:"sum"`
}

// CodecBand summarizes one density: the smallest pickable forced codec
// against what the adaptive selector actually produced.
type CodecBand struct {
	Density        float64 `json:"density"`
	SmallestForced string  `json:"smallest_forced"`
	SmallestBytes  int64   `json:"smallest_bytes"`
	AdaptiveBytes  int64   `json:"adaptive_bytes"`
	// AdaptiveOverheadPct is (adaptive/smallest - 1) * 100; the
	// selector's exact size arithmetic keeps it at zero.
	AdaptiveOverheadPct float64 `json:"adaptive_overhead_pct"`
}

// CodecFigure is the whole sweep.
type CodecFigure struct {
	ChunkShape []int        `json:"chunk_shape"`
	Capacity   int          `json:"chunk_capacity"`
	Points     []CodecPoint `json:"points"`
	Bands      []CodecBand  `json:"bands"`
}

// RunCodec builds one chunk per (density, codec) pair, measures encoded
// size and decode time at the chunk layer, then rebuilds the same cells
// as a repro.DB array for the query-latency leg. It fails if any codec
// changes a query answer or if the DB-level encoded size disagrees with
// the chunk-level build.
func RunCodec(opts CodecOptions) (*CodecFigure, error) {
	opts = opts.withDefaults()
	shape := []int{scaled(baseShape[0], opts.Scale), scaled(baseShape[1], opts.Scale), baseShape[2]}
	geom, err := chunk.NewGeometry(shape, shape) // one chunk
	if err != nil {
		return nil, err
	}
	fig := &CodecFigure{ChunkShape: shape, Capacity: geom.ChunkCapacity()}
	for _, density := range opts.Densities {
		cells := genCells(geom.ChunkCapacity(), density)
		var baseline []repro.Row
		band := CodecBand{Density: density}
		for _, mode := range Modes {
			p := CodecPoint{Density: density, Codec: mode, Cells: len(cells)}
			store, err := buildStore(geom, mode, cells)
			if err != nil {
				return nil, fmt.Errorf("codecbench: %s at density %.2f: %w", mode, density, err)
			}
			p.Picked = store.ChunkCodecName(0)
			p.EncodedBytes = store.EncodedBytes()
			p.BytesPerCell = float64(p.EncodedBytes) / float64(len(cells))
			if p.DecodeNS, err = timeDecode(store); err != nil {
				return nil, err
			}
			rows, queryNS, dbEncoded, err := runQueryLeg(geom, mode, cells)
			if err != nil {
				return nil, fmt.Errorf("codecbench: query leg %s at density %.2f: %w", mode, density, err)
			}
			if dbEncoded != p.EncodedBytes {
				return nil, fmt.Errorf("codecbench: %s at density %.2f: DB array encoded to %d bytes, chunk store to %d",
					mode, density, dbEncoded, p.EncodedBytes)
			}
			p.QueryNS = queryNS
			for _, r := range rows {
				p.Sum += r.Sum
			}
			if baseline == nil {
				baseline = rows
			} else if !rowsEqual(baseline, rows) {
				return nil, fmt.Errorf("codecbench: codec %s changes Query 1 results at density %.2f", mode, density)
			}
			if mode == chunk.CodecAdaptive {
				band.AdaptiveBytes = p.EncodedBytes
			} else if isPickable(mode) &&
				(band.SmallestForced == "" || p.EncodedBytes < band.SmallestBytes) {
				band.SmallestForced = mode
				band.SmallestBytes = p.EncodedBytes
			}
			fig.Points = append(fig.Points, p)
		}
		band.AdaptiveOverheadPct = (float64(band.AdaptiveBytes)/float64(band.SmallestBytes) - 1) * 100
		fig.Bands = append(fig.Bands, band)
	}
	return fig, nil
}

// genCells scatters cells uniformly at the given density with a fixed
// LCG, sorted by offset (the builder requires it). Uniform scatter puts
// the offset/diff-seq crossover near density 1/3 in the 3-byte regime:
// adjacent pairs appear at rate ~density, so diff-seq pays ~6(1-d)+8
// bytes per cell against chunk-offset's flat 12.
func genCells(capacity int, density float64) []chunk.Cell {
	rng := uint64(0x9e3779b97f4a7c15)
	threshold := uint64(density * float64(1<<32))
	cells := make([]chunk.Cell, 0, int(float64(capacity)*density)+16)
	for off := 0; off < capacity; off++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		if (rng>>32)&0xffffffff < threshold {
			cells = append(cells, chunk.Cell{Offset: uint32(off), Value: int64(off)*7 + 1})
		}
	}
	return cells
}

// buildStore writes the cells into a fresh single-chunk store under the
// given codec mode ("adaptive" = per-chunk selection).
func buildStore(geom *chunk.Geometry, mode string, cells []chunk.Cell) (*chunk.Store, error) {
	var codec chunk.Codec
	if mode != chunk.CodecAdaptive {
		var err error
		if codec, err = chunk.CodecByName(mode); err != nil {
			return nil, err
		}
	}
	frames := geom.ChunkCapacity()*10/storage.PageSize + 64
	bp := storage.NewBufferPool(storage.NewMemDiskManager(), frames)
	b := chunk.NewBuilder(geom, codec)
	for _, c := range cells {
		if err := b.AddAt(0, int(c.Offset), c.Value); err != nil {
			return nil, err
		}
	}
	return b.Write(bp)
}

// timeDecode measures a warm full-chunk decode: pages are resident
// after the first read, so the loop isolates codec decode cost.
func timeDecode(s *chunk.Store) (int64, error) {
	store := s.Reader(chunk.View{}, nil)
	if _, err := store.ReadChunk(0); err != nil { // warm the pool
		return 0, err
	}
	var iters int
	start := time.Now()
	for iters = 0; iters < 256; iters++ {
		if _, err := store.ReadChunk(0); err != nil {
			return 0, err
		}
		if iters >= 8 && time.Since(start) > 30*time.Millisecond {
			iters++
			break
		}
	}
	return time.Since(start).Nanoseconds() / int64(iters), nil
}

// codecQuery is the full consolidation (Query 1 shape): scans and
// decodes every chunk, so its warm latency tracks decode cost.
const codecQuery = `select sum(volume), a0 from fact, d0 group by a0`

// runQueryLeg loads the same cells as a repro.DB star schema, builds
// the array under the codec mode, and times the warm consolidation.
func runQueryLeg(geom *chunk.Geometry, mode string, cells []chunk.Cell) ([]repro.Row, int64, int64, error) {
	db, err := repro.Open(repro.Options{})
	if err != nil {
		return nil, 0, 0, err
	}
	defer db.Close()
	dims := geom.Dims()
	schema := &repro.StarSchema{
		Fact: repro.FactSchema{Name: "fact", Dims: []string{"d0", "d1", "d2"}, Measure: "volume"},
		Dimensions: []repro.DimensionSchema{
			{Name: "d0", Key: "k0", Attrs: []string{"a0"}},
			{Name: "d1", Key: "k1", Attrs: []string{"a1"}},
			{Name: "d2", Key: "k2", Attrs: []string{"a2"}},
		},
	}
	if err := db.CreateStarSchema(schema); err != nil {
		return nil, 0, 0, err
	}
	for d, n := range dims {
		rows := make([]repro.DimensionRow, n)
		for k := 0; k < n; k++ {
			rows[k] = repro.DimensionRow{Key: int64(k), Attrs: []string{fmt.Sprintf("g%d", k%8)}}
		}
		if err := db.LoadDimension(schema.Dimensions[d].Name, rows); err != nil {
			return nil, 0, 0, err
		}
	}
	facts := make([]repro.FactTuple, len(cells))
	var coords []int
	for i, c := range cells {
		coords = geom.Decompose(0, int(c.Offset), coords)
		keys := make([]int64, len(coords))
		for d, v := range coords {
			keys[d] = int64(v)
		}
		facts[i] = repro.FactTuple{Keys: keys, Measure: c.Value}
	}
	if err := db.LoadFactRows(facts); err != nil {
		return nil, 0, 0, err
	}
	if err := db.BuildArray(repro.ArrayConfig{ChunkShape: geom.ChunkShape(), Codec: mode}); err != nil {
		return nil, 0, 0, err
	}
	rep, err := db.Sizes()
	if err != nil {
		return nil, 0, 0, err
	}
	var res *repro.Result
	best := int64(1 << 62)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		if res, err = db.QueryOn(codecQuery, repro.ArrayEngine); err != nil {
			return nil, 0, 0, err
		}
		if ns := time.Since(start).Nanoseconds(); ns < best {
			best = ns
		}
	}
	return res.Rows, best, rep.ArrayEncodedBytes, nil
}

func isPickable(mode string) bool {
	for _, m := range pickable {
		if m == mode {
			return true
		}
	}
	return false
}

func scaled(n int, scale float64) int {
	if s := int(float64(n)*scale + 0.5); s >= 4 {
		return s
	}
	return 4
}

func rowsEqual(a, b []repro.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Sum != b[i].Sum || a[i].Count != b[i].Count {
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

// WriteCodecTable renders the sweep as an aligned table plus one
// crossover summary line per density band.
func WriteCodecTable(w io.Writer, fig *CodecFigure) {
	fmt.Fprintf(w, "codec sweep: chunk %v, capacity %d cells\n", fig.ChunkShape, fig.Capacity)
	fmt.Fprintf(w, "%-8s %-14s %-14s %8s %12s %8s %12s %12s\n",
		"density", "codec", "picked", "cells", "encoded", "B/cell", "decode", "query1")
	for _, p := range fig.Points {
		fmt.Fprintf(w, "%-8.2f %-14s %-14s %8d %12d %8.2f %12v %12v\n",
			p.Density, p.Codec, p.Picked, p.Cells, p.EncodedBytes, p.BytesPerCell,
			time.Duration(p.DecodeNS).Round(time.Microsecond),
			time.Duration(p.QueryNS).Round(time.Microsecond))
	}
	for _, b := range fig.Bands {
		fmt.Fprintf(w, "density %.2f: smallest forced codec %s (%d B), adaptive %d B (%+.2f%%)\n",
			b.Density, b.SmallestForced, b.SmallestBytes, b.AdaptiveBytes, b.AdaptiveOverheadPct)
	}
}

// CodecSnapshot is the machine-readable record of one sweep
// (BENCH_codec.json).
type CodecSnapshot struct {
	Scale     float64   `json:"scale"`
	WrittenAt time.Time `json:"written_at"`
	*CodecFigure
}

// WriteCodecSnapshot writes BENCH_codec.json into dir (created as
// needed) and returns the path.
func WriteCodecSnapshot(dir string, fig *CodecFigure, opts CodecOptions) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_codec.json")
	data, err := json.MarshalIndent(&CodecSnapshot{
		Scale:       opts.withDefaults().Scale,
		WrittenAt:   time.Now().UTC(),
		CodecFigure: fig,
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
