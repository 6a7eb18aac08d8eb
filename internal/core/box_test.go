package core

import (
	"testing"

	"repro/internal/chunk"
)

// boxFixture is a 6x4 array in 2x2 chunks whose indexes equal its keys,
// holding cell (k0, k1) = k0*100 + k1 where (k0+k1)%3 == 0.
func boxFixture(t *testing.T) (*fixture, map[[2]int]int64) {
	t.Helper()
	fx := newFixtureDimsFunc(t, []int{6, 4}, [][]int{{3, 2}, {2}}, func(_, _ int, k int64) int { return int(k) % 2 })
	ref := map[[2]int]int64{}
	facts := &sliceFacts{}
	for k0 := int64(0); k0 < 6; k0++ {
		for k1 := int64(0); k1 < 4; k1++ {
			if (k0+k1)%3 == 0 {
				facts.keys = append(facts.keys, []int64{k0, k1})
				facts.measures = append(facts.measures, k0*100+k1)
				ref[[2]int{int(k0), int(k1)}] = k0*100 + k1
			}
		}
	}
	fx.load(t, facts, []int{2, 2})
	return fx, ref
}

func boxSum(fx *fixture, lists [][]int) (int64, error) {
	var sum int64
	err := ArrayBox(fx.arr, chunk.View{}, lists, func(_ []int, v int64) error {
		sum += v
		return nil
	})
	return sum, err
}

func TestArrayBoxSum(t *testing.T) {
	fx, ref := boxFixture(t)

	// Whole-array sum.
	var want int64
	for _, v := range ref {
		want += v
	}
	if got, err := boxSum(fx, wholeLists(fx.arr)); err != nil || got != want {
		t.Fatalf("ArrayBox(all) = (%d, %v), want %d", got, err, want)
	}
	// Sub-box.
	want = 0
	for k, v := range ref {
		if k[0] >= 2 && k[0] <= 4 && k[1] >= 1 && k[1] <= 2 {
			want += v
		}
	}
	if got, err := boxSum(fx, [][]int{{2, 3, 4}, {1, 2}}); err != nil || got != want {
		t.Fatalf("ArrayBox(box) = (%d, %v), want %d", got, err, want)
	}
	// Bad boxes.
	if _, err := boxSum(fx, [][]int{{0, 1}}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := boxSum(fx, [][]int{{0, 6}, {0, 1, 2, 3}}); err == nil {
		t.Fatal("out-of-bounds box accepted")
	}
	if _, err := boxSum(fx, [][]int{{3, 2}, {0, 1, 2, 3}}); err == nil {
		t.Fatal("inverted box accepted")
	}
}

func TestArrayBoxSlice(t *testing.T) {
	fx, ref := boxFixture(t)
	g := fx.arr.Geometry()
	lists, err := SliceBox(fx.arr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	count, lastCn, lastOff := 0, -1, -1
	err = ArrayBox(fx.arr, chunk.View{}, lists, func(coords []int, value int64) error {
		if coords[0] != 3 {
			t.Fatalf("slice yielded coords %v", coords)
		}
		// Ascending chunk, then offset order.
		if cn, off := g.Locate(coords); cn < lastCn || cn == lastCn && off <= lastOff {
			t.Fatalf("slice yielded (chunk %d, offset %d) after (%d, %d)", cn, off, lastCn, lastOff)
		} else {
			lastCn, lastOff = cn, off
		}
		got += value
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	wantCount := 0
	for k, v := range ref {
		if k[0] == 3 {
			want += v
			wantCount++
		}
	}
	if got != want || count != wantCount {
		t.Fatalf("slice sum=%d count=%d, want %d/%d", got, count, want, wantCount)
	}
	if _, err := SliceBox(fx.arr, 5, 0); err == nil {
		t.Fatal("slice with bad dimension accepted")
	}
	if lists, err := SliceBox(fx.arr, 0, 99); err == nil {
		if _, err = boxSum(fx, lists); err == nil {
			t.Fatal("slice with bad index accepted")
		}
	}
}
