package chunk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func allCodecs() []Codec {
	return []Codec{OffsetCodec{}, DenseCodec{}, LZWCodec{}, DiffSeqCodec{}}
}

func randomCells(rng *rand.Rand, capacity int, density float64) []Cell {
	var cells []Cell
	for off := 0; off < capacity; off++ {
		if rng.Float64() < density {
			cells = append(cells, Cell{Offset: uint32(off), Value: rng.Int63n(1000) - 500})
		}
	}
	return cells
}

func cellsEqual(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCodecRoundtripAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const capacity = 1000
	for _, codec := range allCodecs() {
		t.Run(codec.Name(), func(t *testing.T) {
			for _, density := range []float64{0, 0.01, 0.2, 1.0} {
				cells := randomCells(rng, capacity, density)
				enc, err := codec.Encode(cells, capacity)
				if err != nil {
					t.Fatalf("Encode(density=%v): %v", density, err)
				}
				got, err := codec.Decode(enc, capacity, nil)
				if err != nil {
					t.Fatalf("Decode(density=%v): %v", density, err)
				}
				if !cellsEqual(got, cells) {
					t.Fatalf("roundtrip mismatch at density %v: %d vs %d cells",
						density, len(got), len(cells))
				}
			}
		})
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range []string{CodecOffset, CodecDense, CodecLZW, CodecDiffSeq} {
		c, err := CodecByName(name)
		if err != nil || c.Name() != name {
			t.Fatalf("CodecByName(%q) = (%v, %v)", name, c, err)
		}
	}
	if _, err := CodecByName("zstd"); err == nil {
		t.Fatal("CodecByName accepted unknown codec")
	}
}

func TestCodecEncodeRejectsBadInput(t *testing.T) {
	for _, codec := range allCodecs() {
		// Offset beyond capacity.
		if _, err := codec.Encode([]Cell{{Offset: 10, Value: 1}}, 10); err == nil {
			t.Errorf("%s: Encode with offset==capacity succeeded", codec.Name())
		}
		// Unsorted.
		if _, err := codec.Encode([]Cell{{5, 1}, {3, 2}}, 10); err == nil {
			t.Errorf("%s: Encode with unsorted cells succeeded", codec.Name())
		}
		// Duplicate offsets.
		if _, err := codec.Encode([]Cell{{3, 1}, {3, 2}}, 10); err == nil {
			t.Errorf("%s: Encode with duplicate offsets succeeded", codec.Name())
		}
	}
}

func TestCodecDecodeRejectsCorrupt(t *testing.T) {
	if _, err := (OffsetCodec{}).Decode(make([]byte, 13), 100, nil); err == nil {
		t.Error("offset codec accepted ragged length")
	}
	if _, err := (DenseCodec{}).Decode(make([]byte, 5), 100, nil); err == nil {
		t.Error("dense codec accepted wrong length")
	}
	if _, err := (LZWCodec{}).Decode([]byte{0xFF, 0x00, 0x01}, 100, nil); err == nil {
		t.Error("lzw codec accepted garbage")
	}
	// Diff-seq: run count beyond capacity, truncated directory, empty
	// run, non-maximal adjacent runs, run past capacity, value shortfall.
	for _, bad := range [][]byte{
		{200},                       // 200 runs > capacity 100
		{5, 1, 2},                   // directory truncated
		{1, 0, 0},                   // empty run
		{2, 0, 2, 0, 2},             // second run with gap 0 (not maximal)
		{1, 90, 20},                 // run ends at 110 > capacity
		{1, 0, 2, 1, 2, 3, 4},       // 2 cells but <16 value bytes
		{0, 9, 9, 9, 9, 9, 9, 9, 9}, // 0 runs but trailing value bytes
	} {
		if _, err := (DiffSeqCodec{}).Decode(bad, 100, nil); err == nil {
			t.Errorf("diff-seq codec accepted corrupt input %v", bad)
		}
	}
}

// Diff-seq must beat chunk-offset on clustered/dense chunks and lose to
// it on scattered-sparse ones — the crossover pickCodec selects on.
func TestDiffSeqOffsetCrossover(t *testing.T) {
	const capacity = 100_000 // 3-byte difference entries, like a paper-sized chunk
	rng := rand.New(rand.NewSource(17))
	sparse := randomCells(rng, capacity, 0.01)
	dense := randomCells(rng, capacity, 0.9)
	sizeOf := func(c Codec, cells []Cell) int {
		enc, err := c.Encode(cells, capacity)
		if err != nil {
			t.Fatal(err)
		}
		return len(enc)
	}
	if d, o := sizeOf(DiffSeqCodec{}, sparse), sizeOf(OffsetCodec{}, sparse); d <= o {
		t.Fatalf("1%% density: diff-seq %dB <= offset %dB; offset should win scattered-sparse", d, o)
	}
	if d, o := sizeOf(DiffSeqCodec{}, dense), sizeOf(OffsetCodec{}, dense); d >= o {
		t.Fatalf("90%% density: diff-seq %dB >= offset %dB; diff-seq should win dense", d, o)
	}
	if got := pickCodec(sparse, capacity).Name(); got != CodecOffset {
		t.Fatalf("pickCodec(sparse) = %s", got)
	}
	if got := pickCodec(dense, capacity).Name(); got != CodecDiffSeq {
		t.Fatalf("pickCodec(dense) = %s", got)
	}
	// The estimator must agree byte-for-byte with the encoder.
	for _, cells := range [][]Cell{sparse, dense, nil} {
		if est, real := diffSeqSize(cells, capacity), sizeOf(DiffSeqCodec{}, cells); est != real {
			t.Fatalf("diffSeqSize = %d, encoded = %d", est, real)
		}
	}
}

func TestOffsetCompressionBeatsDenseWhenSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const capacity = 8000
	cells := randomCells(rng, capacity, 0.02)
	off, err := (OffsetCodec{}).Encode(cells, capacity)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := (DenseCodec{}).Encode(cells, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if len(off) >= len(dense)/10 {
		t.Fatalf("2%% density: offset=%dB dense=%dB; offset coding should win by >10x",
			len(off), len(dense))
	}
}

func TestSearchCells(t *testing.T) {
	cells := []Cell{{2, 20}, {5, 50}, {9, 90}}
	for _, tc := range []struct {
		off  uint32
		want int64
		ok   bool
	}{{2, 20, true}, {5, 50, true}, {9, 90, true}, {0, 0, false}, {3, 0, false}, {10, 0, false}} {
		v, ok := SearchCells(cells, tc.off)
		if v != tc.want || ok != tc.ok {
			t.Errorf("SearchCells(%d) = (%d, %v), want (%d, %v)", tc.off, v, ok, tc.want, tc.ok)
		}
	}
	if _, ok := SearchCells(nil, 0); ok {
		t.Error("SearchCells on empty found a cell")
	}
}

// Property: every codec round-trips random sparse chunks exactly, and
// SearchCells agrees with a map-based reference on decoded cells.
func TestCodecQuickRoundtripAndSearch(t *testing.T) {
	f := func(seed int64, capRaw uint16, densityRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(capRaw)%3000 + 1
		density := float64(densityRaw) / 255
		cells := randomCells(rng, capacity, density)
		ref := map[uint32]int64{}
		for _, c := range cells {
			ref[c.Offset] = c.Value
		}
		for _, codec := range allCodecs() {
			enc, err := codec.Encode(cells, capacity)
			if err != nil {
				return false
			}
			got, err := codec.Decode(enc, capacity, nil)
			if err != nil || !cellsEqual(got, cells) {
				return false
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Offset < got[j].Offset }) {
				return false
			}
			for trial := 0; trial < 20; trial++ {
				off := uint32(rng.Intn(capacity))
				v, ok := SearchCells(got, off)
				wantV, wantOK := ref[off]
				if ok != wantOK || (ok && v != wantV) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
