package delta

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
)

func TestApplySnapshotDrain(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Last write wins within a batch.
	if err := s.Apply(ctx, []Cell{
		{Chunk: 2, Offset: 7, Value: 10},
		{Chunk: 2, Offset: 7, Value: 11},
		{Chunk: 5, Offset: 0, Value: 3},
	}); err != nil {
		t.Fatal(err)
	}
	dv := s.View()
	ov, versions, touched := dv.Overlay, dv.Versions, dv.Touched
	if got := ov[2]; !reflect.DeepEqual(got, []chunk.OverlayCell{{Offset: 7, Value: 11}}) {
		t.Fatalf("chunk 2 overlay = %v", got)
	}
	if versions[2] != 1 || versions[5] != 1 {
		t.Fatalf("versions = %v", versions)
	}
	if !reflect.DeepEqual(touched, []int{2, 5}) {
		t.Fatalf("touched = %v", touched)
	}

	// A write after the snapshot keeps its chunk across Drain; the
	// unchanged chunk drains.
	if err := s.Apply(ctx, []Cell{{Chunk: 2, Offset: 9, Value: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(versions); err != nil {
		t.Fatal(err)
	}
	dv = s.View()
	ov2, touched2 := dv.Overlay, dv.Touched
	if _, ok := ov2[5]; ok {
		t.Fatal("chunk 5 survived drain")
	}
	if got := ov2[2]; len(got) != 2 {
		t.Fatalf("chunk 2 after drain = %v (want both cells kept)", got)
	}
	if !reflect.DeepEqual(touched2, []int{2, 5}) {
		t.Fatalf("touched after drain = %v (must persist)", touched2)
	}
	st := s.Stats()
	if st.Cells != 2 || st.DirtyChunks != 1 || st.TouchedChunks != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWALReplayAndRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.deltawal")
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Apply(ctx, []Cell{{Chunk: 1, Offset: 3, Value: 42}, {Chunk: 4, Offset: 0, Value: 7, Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(ctx, []Cell{{Chunk: 1, Offset: 3, Value: 43}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	dv := re.View()
	ov, versions := dv.Overlay, dv.Versions
	if got := ov[1]; !reflect.DeepEqual(got, []chunk.OverlayCell{{Offset: 3, Value: 43}}) {
		t.Fatalf("replayed chunk 1 = %v", got)
	}
	if got := ov[4]; !reflect.DeepEqual(got, []chunk.OverlayCell{{Offset: 0, Value: 7, Delete: true}}) {
		t.Fatalf("replayed chunk 4 = %v", got)
	}
	if versions[1] != 2 {
		t.Fatalf("replayed versions = %v", versions)
	}

	// Drain chunk 4 only; the rewritten WAL must replay just chunk 1.
	snap := map[int]uint64{4: versions[4]}
	if err := re.Drain(snap); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	ov2 := re2.View().Overlay
	if _, ok := ov2[4]; ok {
		t.Fatal("drained chunk 4 came back after rewrite")
	}
	if got := ov2[1]; !reflect.DeepEqual(got, []chunk.OverlayCell{{Offset: 3, Value: 43}}) {
		t.Fatalf("rewritten chunk 1 = %v", got)
	}
	re2.Close()
}

func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.deltawal")
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Apply(ctx, []Cell{{Chunk: 0, Offset: 1, Value: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(ctx, []Cell{{Chunk: 0, Offset: 2, Value: 6}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the last record: chop off its final byte.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	ov := re.View().Overlay
	if got := ov[0]; !reflect.DeepEqual(got, []chunk.OverlayCell{{Offset: 1, Value: 5}}) {
		t.Fatalf("after torn tail, chunk 0 = %v (want only the first batch)", got)
	}
	re.Close()
}

func TestBackpressure(t *testing.T) {
	s, err := Open("", 2*cellCost)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Fill to the budget; the store admits the batch that crosses it.
	if err := s.Apply(ctx, []Cell{{Chunk: 0, Offset: 0, Value: 1}, {Chunk: 0, Offset: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}

	// A further Apply must block until a Drain frees room.
	versions := s.View().Versions
	done := make(chan error, 1)
	go func() {
		done <- s.Apply(ctx, []Cell{{Chunk: 1, Offset: 0, Value: 3}})
	}()
	select {
	case err := <-done:
		t.Fatalf("over-budget Apply returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Drain(versions); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// And a canceled context unblocks a waiter with its error.
	if err := s.Apply(ctx, []Cell{{Chunk: 2, Offset: 0, Value: 1}, {Chunk: 2, Offset: 1, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	go func() {
		done <- s.Apply(cctx, []Cell{{Chunk: 3, Offset: 0, Value: 4}})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("canceled Apply = %v", err)
	}
	s.Close()
}

// TestSnapshotPairs: a writer raises one cell, a compactor folds,
// publishes and drains, and every snapshot a reader takes meanwhile
// pairs its base with an overlay that together hold every acknowledged
// value: (old base, full overlay), (new, full) or (new, drained), never
// a base the overlay was already drained into elsewhere.
func TestSnapshotPairs(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var (
		mu    sync.Mutex
		base  = map[uint64]int64{1: 0} // state -> the cell's folded value
		acked atomic.Int64
		done  = make(chan struct{})
		wg    sync.WaitGroup
	)
	s.Publish(1)
	folded := func(state uint64) (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		v, ok := base[state]
		return v, ok
	}

	wg.Add(1)
	go func() { // the compactor
		defer wg.Done()
		for next := uint64(2); ; {
			select {
			case <-done:
				return
			default:
			}
			dv := s.View()
			ov, versions := dv.Overlay, dv.Versions
			if len(ov) == 0 {
				continue
			}
			mu.Lock()
			base[next] = ov[0][0].Value // absolute states: the overlay wins
			mu.Unlock()
			s.Publish(next)
			runtime.Gosched() // let readers land between publish and drain
			if err := s.Drain(versions); err != nil {
				t.Error(err)
				return
			}
			next++
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ack := acked.Load()
				dv := s.View()
				state, ov := dv.State, dv.Overlay
				v, ok := folded(state)
				if !ok {
					t.Errorf("snapshot names state %d, which was never published", state)
					return
				}
				if cells := ov[0]; len(cells) > 0 {
					v = cells[0].Value
				}
				if v < ack {
					t.Errorf("snapshot (state %d, %d overlay cells) reads %d; %d was acknowledged before it", state, len(ov[0]), v, ack)
					return
				}
			}
		}()
	}
	for v := int64(1); v <= 3000 && !t.Failed(); v++ {
		if err := s.Apply(ctx, []Cell{{Chunk: 0, Offset: 0, Value: v}}); err != nil {
			t.Error(err)
			break
		}
		acked.Store(v)
	}
	close(done)
	wg.Wait()
}

// TestViewsSelfConsistent: one reader loops View() while writers Apply
// to several chunks, a compactor Drains what it saw and Publishes, and a
// seeder marks chunks touched. Every view holds together — each overlay
// chunk is touched and has a version, the touched list is ascending —
// and across successive views no version falls and no touched chunk is
// forgotten. Run it with -race: a writer that edited a published map in
// place fails here.
func TestViewsSelfConsistent(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	done := make(chan struct{})
	var writers, reader sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 400; i++ {
				batch := []Cell{{Chunk: (i + w) % 7, Offset: uint32(i % 5), Value: int64(i)}, {Chunk: 7 + w, Offset: 1, Delete: i%3 == 0}}
				if err := s.Apply(ctx, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Add(1)
	go func() { // the compactor and the seeder
		defer writers.Done()
		for state := uint64(1); state <= 200; state++ {
			v := s.View()
			s.Publish(state)
			if err := s.Drain(v.Versions); err != nil {
				t.Error(err)
				return
			}
			s.SeedTouched([]int{int(20 + state%5)})
			runtime.Gosched()
		}
	}()
	reader.Add(1)
	go func() {
		defer reader.Done()
		var prev *View
		for views := 0; ; views++ {
			select {
			case <-done:
				if views < 2 {
					t.Errorf("the reader took %d views", views)
				}
				return
			default:
			}
			v := s.View()
			if err := checkView(prev, v); err != "" {
				t.Error(err)
				return
			}
			prev = v
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()
}

// checkView reports what is wrong with v on its own, or as the view
// taken after prev (nil = the first); "" when nothing is.
func checkView(prev, v *View) string {
	if !sort.IntsAreSorted(v.Touched) {
		return fmt.Sprintf("touched %v not ascending", v.Touched)
	}
	for cn := range v.Overlay {
		if _, ok := slices.BinarySearch(v.Touched, cn); !ok {
			return fmt.Sprintf("overlay chunk %d not in touched %v", cn, v.Touched)
		}
		if v.Versions[cn] == 0 {
			return fmt.Sprintf("overlay chunk %d has no version", cn)
		}
	}
	if prev == nil {
		return ""
	}
	for cn, ver := range prev.Versions {
		if v.Versions[cn] < ver {
			return fmt.Sprintf("chunk %d: version %d after %d", cn, v.Versions[cn], ver)
		}
	}
	for _, cn := range prev.Touched {
		if _, ok := slices.BinarySearch(v.Touched, cn); !ok {
			return fmt.Sprintf("touched chunk %d forgotten", cn)
		}
	}
	return ""
}
