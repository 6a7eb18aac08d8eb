package chunk

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// fuzzSeedStores builds one adaptive and two forced-codec stores and
// returns their marshaled directories, so the fuzzer starts from valid
// blobs of every codec mode it must parse.
func fuzzSeedStores(f *testing.F) [][]byte {
	f.Helper()
	bp := newStorePool(256)
	g, err := NewGeometry([]int{40, 20}, []int{20, 20})
	if err != nil {
		f.Fatal(err)
	}
	var seeds [][]byte
	for _, codec := range []Codec{nil, OffsetCodec{}, DenseCodec{}} {
		b := NewBuilder(g, codec)
		for i := 0; i < 8; i++ {
			if err := b.AddAt(0, i*50, int64(i)); err != nil {
				f.Fatal(err)
			}
		}
		for off := 0; off < 360; off++ {
			if err := b.AddAt(1, off, int64(off)); err != nil {
				f.Fatal(err)
			}
		}
		s, err := b.Write(bp)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, s.marshalMeta())
	}
	return seeds
}

// FuzzStoreDir throws arbitrary bytes at the store-directory parser. It
// must never panic, an error must come with no directory (the v1 seed
// takes that path: see TestV1StoreRejected), and anything it accepts must
// be internally consistent: a geometry, one entry per chunk, and codec
// tags that resolve in the codec table.
func FuzzStoreDir(f *testing.F) {
	seeds := fuzzSeedStores(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Add(seeds[0][:len(seeds[0])/2]) // a directory cut off mid-way
	f.Add([]byte(v1Directory))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 2})
	f.Add([]byte{0, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := unmarshalStoreDir(data)
		if err != nil {
			if d != nil {
				t.Fatalf("a directory came back beside the error %v", err)
			}
			return
		}
		if d.geom == nil {
			t.Fatal("accepted directory with nil geometry")
		}
		if len(d.entries) != d.geom.NumChunks() {
			t.Fatalf("%d entries for %d chunks", len(d.entries), d.geom.NumChunks())
		}
		for i, e := range d.entries {
			if int(e.codec) >= len(codecTable) {
				t.Fatalf("entry %d tagged with unknown codec %d", i, e.codec)
			}
		}
	})
}

// FuzzCodecDecode feeds arbitrary payloads to every codec's decoder
// (selected by the first input byte). Decoders must never panic and must
// bound their allocations by the declared capacity; whatever they accept
// must survive an encode/decode round trip unchanged.
func FuzzCodecDecode(f *testing.F) {
	codecs := allCodecs()
	rng := rand.New(rand.NewSource(71))
	for sel := range codecs {
		for _, density := range []float64{0.02, 0.5, 1.0} {
			const capacity = 600
			cells := randomCells(rng, capacity, density)
			enc, err := codecs[sel].Encode(cells, capacity)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(sel), uint16(capacity), enc)
		}
	}
	f.Add(uint8(0), uint16(0), []byte{})
	f.Add(uint8(3), uint16(100), []byte{200})
	f.Fuzz(func(t *testing.T, sel uint8, capRaw uint16, data []byte) {
		codec := codecs[int(sel)%len(codecs)]
		capacity := int(capRaw)%4096 + 1
		cells, err := codec.Decode(data, capacity)
		if err != nil {
			return
		}
		// Accepted payloads must describe a valid chunk: sorted unique
		// offsets inside the capacity.
		for i, c := range cells {
			if int(c.Offset) >= capacity {
				t.Fatalf("%s: decoded offset %d >= capacity %d", codec.Name(), c.Offset, capacity)
			}
			if i > 0 && cells[i-1].Offset >= c.Offset {
				t.Fatalf("%s: decoded offsets not strictly sorted at %d", codec.Name(), i)
			}
		}
		// The arena path must agree with the heap path byte for byte.
		viaAlloc, err := codec.DecodeAlloc(data, capacity, func(n int) []Cell { return make([]Cell, n) })
		if err != nil || !cellsEqual(viaAlloc, cells) {
			t.Fatalf("%s: DecodeAlloc diverges from Decode: %v", codec.Name(), err)
		}
		// Round trip: re-encoding what was accepted reproduces it.
		enc, err := codec.Encode(cells, capacity)
		if err != nil {
			t.Fatalf("%s: re-encode of accepted cells failed: %v", codec.Name(), err)
		}
		again, err := codec.Decode(enc, capacity)
		if err != nil || !cellsEqual(again, cells) {
			t.Fatalf("%s: round trip after accept diverges: %v", codec.Name(), err)
		}
	})
}

// Guard against the sentinel colliding with a v1 blob, which starts with
// its geometry: geometry marshaling must never start with a zero
// dimension count.
func TestV1BlobNeverStartsWithZero(t *testing.T) {
	g, err := NewGeometry([]int{3}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := binary.Uvarint(g.Marshal())
	if first == 0 {
		t.Fatal("geometry blob starts with 0; v2 sentinel is ambiguous")
	}
}
