package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapSetTestClear(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []uint64{0, 63, 64, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 5 {
		t.Fatalf("Clear failed: test=%v count=%d", b.Test(64), b.Count())
	}
}

func TestBitmapBoundsPanic(t *testing.T) {
	for name, fn := range map[string]func(*Bitmap){
		"Set":   func(b *Bitmap) { b.Set(100) },
		"Clear": func(b *Bitmap) { b.Clear(100) },
		"Test":  func(b *Bitmap) { b.Test(100) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s out of range did not panic", name)
				}
			}()
			fn(New(100))
		})
	}
}

func TestBitmapAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(99)
	b.Set(2)

	and := a.Clone()
	and.And(b)
	if and.Count() != 2 || !and.Test(50) || !and.Test(99) {
		t.Fatalf("And wrong: count=%d", and.Count())
	}
	or := a.Clone()
	or.Or(b)
	if or.Count() != 4 {
		t.Fatalf("Or wrong: count=%d", or.Count())
	}
	diff := a.Clone()
	diff.AndNot(b)
	if diff.Count() != 1 || !diff.Test(1) {
		t.Fatalf("AndNot wrong: count=%d", diff.Count())
	}
	not := a.Clone()
	not.Not()
	if not.Count() != 97 {
		t.Fatalf("Not wrong: count=%d, want 97", not.Count())
	}
	if not.Test(50) || !not.Test(0) {
		t.Fatal("Not flipped bits incorrectly")
	}
}

func TestBitmapSetAllRespectsLength(t *testing.T) {
	b := New(70) // not a multiple of 64: tail bits must stay clear
	b.SetAll()
	if b.Count() != 70 {
		t.Fatalf("SetAll Count = %d, want 70", b.Count())
	}
	if _, ok := b.NextSet(70); ok {
		t.Fatal("NextSet found a ghost bit past Len")
	}
	b.Not()
	if b.Count() != 0 {
		t.Fatalf("Not after SetAll Count = %d, want 0", b.Count())
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(64).And(New(128))
}

func TestBitmapNextSetAndForEach(t *testing.T) {
	b := New(300)
	want := []uint64{3, 64, 65, 192, 299}
	for _, i := range want {
		b.Set(i)
	}
	var got []uint64
	b.ForEach(func(i uint64) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", got, want)
		}
	}
	if pos, ok := b.NextSet(66); !ok || pos != 192 {
		t.Fatalf("NextSet(66) = (%d, %v), want 192", pos, ok)
	}
	if _, ok := b.NextSet(300); ok {
		t.Fatal("NextSet past end returned a bit")
	}
	// Early stop.
	n := 0
	b.ForEach(func(i uint64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("ForEach early stop visited %d", n)
	}
}

func TestBitmapMarshalRoundtrip(t *testing.T) {
	cases := []func() *Bitmap{
		func() *Bitmap { return New(0) },
		func() *Bitmap { return New(1) },
		func() *Bitmap { b := New(1); b.Set(0); return b },
		func() *Bitmap { return New(10000) }, // all zero: tiny encoding
		func() *Bitmap { b := New(10000); b.SetAll(); return b },
		func() *Bitmap { b := New(10000); b.Set(9999); return b },
		func() *Bitmap {
			b := New(5000)
			for i := uint64(0); i < 5000; i += 7 {
				b.Set(i)
			}
			return b
		},
	}
	for i, mk := range cases {
		b := mk()
		enc := b.Marshal()
		got, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("case %d: Unmarshal: %v", i, err)
		}
		if !got.Equal(b) {
			t.Fatalf("case %d: roundtrip mismatch", i)
		}
	}
	// Sparse bitmaps must compress well.
	sparse := New(1 << 20)
	sparse.Set(5)
	if n := len(sparse.Marshal()); n > 64 {
		t.Fatalf("sparse 1Mbit bitmap encoded to %d bytes", n)
	}
}

func TestBitmapUnmarshalCorrupt(t *testing.T) {
	b := New(1000)
	b.Set(1)
	b.Set(999)
	enc := b.Marshal()
	for _, bad := range [][]byte{
		nil,
		enc[:1],
		enc[:len(enc)-3],
		append(append([]byte{}, enc...), 0x04), // extra zero run past end
	} {
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("Unmarshal(%d bytes) accepted corrupt input", len(bad))
		}
	}
}

// Property: RLE roundtrip preserves random bitmaps exactly.
func TestBitmapQuickMarshalRoundtrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, density uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint64(nRaw) + 1
		b := New(n)
		p := float64(density) / 255
		for i := uint64(0); i < n; i++ {
			if rng.Float64() < p {
				b.Set(i)
			}
		}
		got, err := Unmarshal(b.Marshal())
		return err == nil && got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — NOT(a AND b) == NOT a OR NOT b.
func TestBitmapQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 517
		a, b := New(n), New(n)
		for i := uint64(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		lhs := a.Clone()
		lhs.And(b)
		lhs.Not()
		na, nb := a.Clone(), b.Clone()
		na.Not()
		nb.Not()
		na.Or(nb)
		return lhs.Equal(na)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodedLenAndPagesTouched: EncodedLen is the length Marshal
// writes, and PagesTouched counts the perPage-wide groups holding a bit.
func TestEncodedLenAndPagesTouched(t *testing.T) {
	for _, bits := range [][]uint64{nil, {0}, {5, 6, 700, 701, 9000}, {63, 64, 127, 128, 129, 4095}} {
		b := New(10000)
		for _, i := range bits {
			b.Set(i)
		}
		if got, want := b.EncodedLen(), len(b.Marshal()); got != want {
			t.Errorf("bits %v: EncodedLen %d, Marshal writes %d", bits, got, want)
		}
		groups := map[uint64]bool{}
		for _, i := range bits {
			groups[i/100] = true
		}
		if got := b.PagesTouched(100); got != int64(len(groups)) {
			t.Errorf("bits %v: PagesTouched(100) = %d, want %d", bits, got, len(groups))
		}
	}
}
