package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/storage"
)

// StorageRow is one line of the storage comparison table (§3.2, §5.5.1).
type StorageRow struct {
	Name          string
	Cells         int64   // logical cube cells
	Facts         int64   // valid cells / fact tuples
	Density       float64 // Facts / Cells
	FactFileBytes int64   // relational fact file (pages)
	ArrayBytes    int64   // adaptive array, encoded payload
	DenseBytes    int64   // uncompressed array estimate (8 B/cell + validity)
	Chunks        int
	// Codecs breaks the encoded payload down by the per-chunk codec
	// the adaptive builder picked.
	Codecs map[string]CodecUsage
}

// CodecUsage is one codec's share of an array's chunks and payload.
type CodecUsage struct {
	Chunks       int64
	EncodedBytes int64
}

// StorageTable reproduces the storage comparison: the compressed array
// against the fact file at each Data Set 1 shape and Data Set 2 density.
// The paper reports 6.5 MB (array) vs 18.5 MB (fact file) at 1% density.
func (h *Harness) StorageTable() ([]StorageRow, error) {
	var rows []StorageRow
	add := func(name string, data datagen.Config) error {
		env, err := h.env(EnvConfig{Data: data})
		if err != nil {
			return err
		}
		arr, err := env.Array()
		if err != nil {
			return err
		}
		ff, err := env.FactFile()
		if err != nil {
			return err
		}
		g := arr.Geometry()
		codecs := make(map[string]CodecUsage)
		for name, st := range arr.Store().CodecStats() {
			codecs[name] = CodecUsage{Chunks: st.Chunks, EncodedBytes: st.EncodedBytes}
		}
		rows = append(rows, StorageRow{
			Name:          name,
			Cells:         g.NumCells(),
			Facts:         arr.NumValidCells(),
			Density:       env.DS.Density(),
			FactFileBytes: ff.SizeBytes(),
			ArrayBytes:    arr.Store().EncodedBytes(),
			DenseBytes:    g.NumCells()*8 + g.NumCells()/8,
			Chunks:        g.NumChunks(),
			Codecs:        codecs,
		})
		return nil
	}
	for variant := 0; variant < 3; variant++ {
		data, err := h.dataSet1(variant)
		if err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("DataSet1 d4=%d", data.DimSizes[len(data.DimSizes)-1]), data); err != nil {
			return nil, err
		}
	}
	for _, density := range figure5Densities {
		data := scaleData(datagen.DataSet2(density, h.Opts.seed()), h.Opts.scale())
		if err := add(fmt.Sprintf("DataSet2 rho=%.1f%%", density*100), data); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// CodecAblation compares the chunk codecs (and the adaptive per-chunk
// selector) on storage size and Query 1 time — the §3.3 design choice.
// The density x codec crossover sweep is olapbench -fig codec.
func (h *Harness) CodecAblation() (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-codec",
		Title:  "Chunk codec ablation on Data Set 2 (5% density): Query 1",
		XName:  "codec",
		Series: []string{"array"},
	}
	data := scaleData(datagen.DataSet2(0.05, h.Opts.seed()), h.Opts.scale())
	for i, codec := range []string{chunk.CodecAdaptive, chunk.CodecOffset, chunk.CodecDiffSeq, chunk.CodecLZW, chunk.CodecDense} {
		env, err := h.env(EnvConfig{Data: data, Codec: codec})
		if err != nil {
			return nil, err
		}
		m, err := env.Run(env.Query1Spec(), exec.ArrayEngine, h.cold(), h.trials())
		if err != nil {
			return nil, err
		}
		arr, err := env.Array()
		if err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, Point{
			X:      float64(i),
			XLabel: fmt.Sprintf("%s (%s encoded)", codec, FormatBytes(arr.Store().EncodedBytes())),
			M:      map[string]Measurement{"array": m},
		})
	}
	return fig, nil
}

// ChunkShapeAblation sweeps the tile shape on Data Set 2: Query 1 (full
// scan) and a 4-dimension selection, showing the scan-vs-probe tradeoff
// the paper touches in §5.5.1 (more, smaller chunks slow the scan).
func (h *Harness) ChunkShapeAblation() (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-chunkshape",
		Title:  "Chunk shape ablation on Data Set 2 (10% density)",
		XName:  "chunk shape",
		Series: []string{"query1", "query2"},
	}
	base := scaleData(datagen.DataSet2(0.10, h.Opts.seed()), h.Opts.scale())
	data := datagen.WithSelectivity(base, 5)
	dims := data.DimSizes
	shapes := [][]int{
		shapeOf(dims, 4, 2),
		shapeOf(dims, 2, 4),
		shapeOf(dims, 1, 10),
		dims, // one chunk
	}
	for i, shape := range shapes {
		env, err := h.env(EnvConfig{Data: data, ChunkShape: shape, BuildBitmaps: false})
		if err != nil {
			return nil, err
		}
		q1, err := env.Run(env.Query1Spec(), exec.ArrayEngine, h.cold(), h.trials())
		if err != nil {
			return nil, err
		}
		spec, err := env.SelectSpec(len(dims))
		if err != nil {
			return nil, err
		}
		q2, err := env.Run(spec, exec.ArrayEngine, h.cold(), h.trials())
		if err != nil {
			return nil, err
		}
		arr, err := env.Array()
		if err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, Point{
			X:      float64(i),
			XLabel: fmt.Sprintf("%v (%d chunks)", shape, arr.Geometry().NumChunks()),
			M:      map[string]Measurement{"query1": q1, "query2": q2},
		})
	}
	return fig, nil
}

// shapeOf derives a chunk shape by dividing each dimension by div (last
// dimension by lastDiv), minimum side 1.
func shapeOf(dims []int, div, lastDiv int) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		dv := div
		if i == len(dims)-1 {
			dv = lastDiv
		}
		s := d / dv
		if s < 1 {
			s = 1
		}
		out[i] = s
	}
	return out
}

// EnumerationAblation compares the §4.2 chunk-ordered cross-product
// enumeration against naive index-order enumeration for selection
// queries at several selectivities.
func (h *Harness) EnumerationAblation() (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-enumeration",
		Title:  "Cross-product enumeration order (Query 2 on Data Set 1, 40x40x40x100)",
		XName:  "selectivity S",
		Series: []string{"chunk-ordered", "naive"},
	}
	for _, distinct := range []int{2, 5, 10} {
		base, err := h.dataSet1(1)
		if err != nil {
			return nil, err
		}
		data := datagen.WithSelectivity(base, distinct)
		env, err := h.env(EnvConfig{Data: data, BuildBitmaps: true})
		if err != nil {
			return nil, err
		}
		spec, err := env.SelectSpec(len(data.DimSizes))
		if err != nil {
			return nil, err
		}
		arr, err := env.Array()
		if err != nil {
			return nil, err
		}
		sel, err := env.Selectivity(spec)
		if err != nil {
			return nil, err
		}

		p := Point{X: sel, XLabel: fmt.Sprintf("s=1/%d S=%.6f", distinct, sel), M: map[string]Measurement{}}
		runDirect := func(name string, fn func() (*core.Result, core.Metrics, error)) error {
			if h.cold() {
				if err := env.Ex.DropCaches(); err != nil {
					return err
				}
			}
			start := time.Now()
			res, metrics, err := fn()
			if err != nil {
				return err
			}
			m := Measurement{Plan: name, Elapsed: time.Since(start), Metrics: metrics, Rows: res.NumGroups()}
			for _, r := range res.Rows() {
				m.Sum += r.Sum
			}
			p.M[name] = m
			return nil
		}
		if err := runDirect("chunk-ordered", func() (*core.Result, core.Metrics, error) {
			return core.ArrayConsolidate(context.Background(), arr, core.ScanSpec{Selections: spec.Selections, Group: spec.Group})
		}); err != nil {
			return nil, err
		}
		if err := runDirect("naive", func() (*core.Result, core.Metrics, error) {
			return core.ArraySelectConsolidateNaive(arr, spec.Selections, spec.Group)
		}); err != nil {
			return nil, err
		}
		if err := checkAgreement(p); err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, p)
	}
	return fig, nil
}

// FactFileAblation measures a full fact scan through the §4.4 fact file
// against the same tuples stored in a slotted heap file — the paper's
// claim that eliminating slotted-page overhead speeds the relational
// baseline.
func (h *Harness) FactFileAblation() (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-factfile",
		Title:  "Fact storage: extent-based fact file vs slotted heap file (full scan)",
		XName:  "storage",
		Series: []string{"scan"},
	}
	data, err := h.dataSet1(1)
	if err != nil {
		return nil, err
	}
	env, err := h.env(EnvConfig{Data: data})
	if err != nil {
		return nil, err
	}
	ff, err := env.FactFile()
	if err != nil {
		return nil, err
	}

	// Copy the fact tuples into a heap file on the same volume.
	hf, err := heap.Create(env.BP)
	if err != nil {
		return nil, err
	}
	err = ff.Scan(func(_ uint64, rec []byte) error {
		_, err := hf.Insert(rec)
		return err
	})
	if err != nil {
		return nil, err
	}

	scanFact := func() (int64, error) {
		var sum int64
		n := len(data.DimSizes)
		err := ff.Scan(func(_ uint64, rec []byte) error {
			sum += rec2measure(rec, n)
			return nil
		})
		return sum, err
	}
	scanHeap := func() (int64, error) {
		var sum int64
		n := len(data.DimSizes)
		err := hf.Scan(func(_ heap.RID, rec []byte) error {
			sum += rec2measure(rec, n)
			return nil
		})
		return sum, err
	}

	for i, alt := range []struct {
		name string
		scan func() (int64, error)
		size int64
	}{
		{"fact-file", scanFact, ff.SizeBytes()},
		{"heap-file", scanHeap, heapSize(hf)},
	} {
		if h.cold() {
			if err := env.Ex.DropCaches(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		sum, err := alt.scan()
		if err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, Point{
			X:      float64(i),
			XLabel: fmt.Sprintf("%s (%s)", alt.name, FormatBytes(alt.size)),
			M: map[string]Measurement{"scan": {
				Plan:    alt.name,
				Elapsed: time.Since(start),
				Sum:     sum,
				Rows:    int(ff.NumTuples()),
			}},
		})
	}
	if fig.Points[0].M["scan"].Sum != fig.Points[1].M["scan"].Sum {
		return nil, fmt.Errorf("bench: fact file and heap scans disagree")
	}
	return fig, nil
}

func rec2measure(rec []byte, n int) int64 {
	return int64(storage.GetUint64(rec, n*4))
}

func heapSize(hf *heap.File) int64 {
	sz, err := hf.SizeBytes()
	if err != nil {
		return 0
	}
	return sz
}

// BufferPoolAblation sweeps the buffer pool size for Query 1 on
// Data Set 1's 1%-density array — the knob the paper fixed at 16 MB.
func (h *Harness) BufferPoolAblation() (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-bufferpool",
		Title:  "Buffer pool size (Query 1, Data Set 1 40x40x40x1000)",
		XName:  "pool size",
		Series: []string{"array", "starjoin"},
	}
	data, err := h.dataSet1(2)
	if err != nil {
		return nil, err
	}
	for _, mb := range []int{1, 4, 16, 64} {
		env, err := h.env(EnvConfig{Data: data, BufferPoolBytes: mb << 20})
		if err != nil {
			return nil, err
		}
		spec := env.Query1Spec()
		p := Point{X: float64(mb), XLabel: fmt.Sprintf("%d MB", mb), M: map[string]Measurement{}}
		for name, engine := range map[string]exec.Engine{
			"array": exec.ArrayEngine, "starjoin": exec.StarJoinEngine,
		} {
			m, err := env.Run(spec, engine, h.cold(), h.trials())
			if err != nil {
				return nil, err
			}
			p.M[name] = m
		}
		if err := checkAgreement(p); err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, p)
	}
	return fig, nil
}
