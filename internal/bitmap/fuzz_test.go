package bitmap

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// orSplit OR-decodes data into b, fed in pieces whose sizes cycle
// through split+1, 1 and 8, so pieces end inside varints and words.
func orSplit(b *Bitmap, data []byte, split int) error {
	d := b.OrDecoder()
	for i := 0; len(data) > 0; i++ {
		n := min(len(data), [3]int{split + 1, 1, 8}[i%3])
		if err := d.Feed(data[:n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return d.Close()
}

// FuzzBitmapDecode throws arbitrary bytes at the run-length decoder, fed
// in pieces of arbitrary size as a blob walk feeds it. OR-decoding into
// an empty bitmap must equal Unmarshal, OR-decoding into a non-empty one
// must equal Unmarshal then Or, and both must reject exactly the inputs
// Unmarshal rejects — a header that is not the target's length too.
// Unmarshal sizes its bitmap from the header, so headers past 2^16 bits
// are left out: they ask for memory, not for decoding logic.
func FuzzBitmapDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []uint64{0, 1, 63, 64, 65, 1000, 4096} {
		for _, density := range []float64{0, 0.01, 0.5, 1} {
			b := New(n)
			for i := uint64(0); i < n; i++ {
				if rng.Float64() < density {
					b.Set(i)
				}
			}
			enc := b.Marshal()
			f.Add(uint8(n%7), enc)
			if len(enc) > 2 {
				f.Add(uint8(3), enc[:len(enc)-1]) // truncated
			}
		}
	}
	huge := binary.AppendUvarint([]byte{64}, math.MaxUint64) // a literal run of 2^63 words
	f.Add(uint8(0), huge)
	f.Add(uint8(0), binary.AppendUvarint([]byte{128, 1}, 1<<63)) // a zero run of 2^62 words
	f.Add(uint8(0), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, split uint8, data []byte) {
		n, sz := binary.Uvarint(data)
		if sz > 0 && n > 1<<16 {
			return
		}
		want, wantErr := Unmarshal(data)
		if wantErr == nil {
			if want.Len() != n {
				t.Fatalf("Unmarshal: %d bits from a header of %d", want.Len(), n)
			}
			if again, err := Unmarshal(want.Marshal()); err != nil || !again.Equal(want) {
				t.Fatalf("Marshal of an accepted bitmap does not round-trip: %v", err)
			}
		}

		empty := New(n)
		err := orSplit(empty, data, int(split))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("OR-decode into an empty bitmap: err %v, Unmarshal err %v", err, wantErr)
		}
		if err == nil && !empty.Equal(want) {
			t.Fatal("OR-decode into an empty bitmap differs from Unmarshal")
		}

		base := New(n)
		br := rand.New(rand.NewSource(int64(split)))
		for i := range base.words {
			base.words[i] = br.Uint64()
		}
		base.trimTail()
		got := base.Clone()
		err = orSplit(got, data, int(split))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("OR-decode into a full bitmap: err %v, Unmarshal err %v", err, wantErr)
		}
		if err == nil {
			base.Or(want)
			if !got.Equal(base) {
				t.Fatal("OR-decode into a full bitmap differs from Unmarshal + Or")
			}
		}

		if sz > 0 && orSplit(New(n+1), data, int(split)) == nil {
			t.Fatalf("a %d-bit encoding OR-decoded into a %d-bit bitmap", n, n+1)
		}
	})
}
