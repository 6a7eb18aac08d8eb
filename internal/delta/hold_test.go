package delta

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestHoldsOrderReclaim: a held state keeps the reclaimer's oldest at its
// sequence; once its last holder lets go, the reclaimer runs with the
// current sequence.
func TestHoldsOrderReclaim(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	s.SetReclaimer(func(oldest uint64) { got = append(got, oldest) })
	s.Publish(10)
	a := s.Acquire()
	b := s.Acquire()
	s.Publish(20)
	c := s.Acquire()
	if a.Seq != b.Seq || c.Seq == a.Seq || c.State != 20 {
		t.Fatalf("views %+v %+v %+v", a, b, c)
	}
	s.Publish(20) // the same state: no new sequence
	if s.View().Seq != c.Seq {
		t.Fatal("republishing the current state moved its sequence")
	}
	s.Reclaim()
	a.Release()
	b.Release() // the last holder of state 10
	c.Release() // the current state: reclaims nothing
	if want := []uint64{a.Seq, c.Seq}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("reclaimer saw %v, want %v", got, want)
	}
	var made View
	made.Release() // a view Acquire did not return holds nothing
}

// TestReclaimNeverPassesAHeldState races readers that hold views
// against a publisher: the oldest sequence the reclaimer is handed is
// never above a state some reader holds.
func TestReclaimNeverPassesAHeldState(t *testing.T) {
	s, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	held := map[*View]uint64{}
	var bad atomic.Value
	s.SetReclaimer(func(oldest uint64) {
		mu.Lock()
		defer mu.Unlock()
		for _, seq := range held {
			if seq < oldest {
				bad.Store(oldest)
			}
		}
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.Acquire()
				mu.Lock()
				held[v] = v.Seq
				mu.Unlock()
				mu.Lock()
				delete(held, v)
				mu.Unlock()
				v.Release()
			}
		}()
	}
	for i := uint64(1); i <= 20000; i++ {
		s.Publish(i)
		s.Reclaim()
	}
	close(stop)
	wg.Wait()
	if v := bad.Load(); v != nil {
		t.Fatalf("reclaimed up to %v under a held state", v)
	}
}
