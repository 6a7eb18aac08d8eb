package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewQueryIDFormatAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewQueryID()
		if len(id) != 17 || id[8] != '-' {
			t.Fatalf("bad query ID %q, want <8 hex>-<8 hex>", id)
		}
		if seen[id] {
			t.Fatalf("duplicate query ID %q", id)
		}
		seen[id] = true
	}
}

func TestQueryTagContext(t *testing.T) {
	if QueryTagFromContext(context.Background()) != nil {
		t.Fatal("tag from bare context should be nil")
	}
	tag := &QueryTag{ID: "abc-123", TraceOn: true, AdmissionWait: time.Millisecond}
	ctx := ContextWithQueryTag(context.Background(), tag)
	if got := QueryTagFromContext(ctx); got != tag {
		t.Fatalf("tag round-trip = %+v, want %+v", got, tag)
	}
}

func TestSamplerRates(t *testing.T) {
	count := func(s *Sampler, n int) int {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Sample() {
				hits++
			}
		}
		return hits
	}
	if got := count(NewSampler(1), 100); got != 100 {
		t.Fatalf("every=1 sampled %d/100", got)
	}
	if got := count(NewSampler(0), 100); got != 0 {
		t.Fatalf("every=0 sampled %d/100", got)
	}
	if got := count(NewSampler(4), 400); got != 100 {
		t.Fatalf("every=4 sampled %d/400, want 100", got)
	}
	s := NewSampler(-3) // negative clamps to never
	if s.Sample() {
		t.Fatal("negative rate should disable sampling")
	}
	var nilSampler *Sampler
	if nilSampler.Sample() {
		t.Fatal("nil sampler should never sample")
	}
}

func TestNilSpanNoops(t *testing.T) {
	var s *Span
	s.End()
	s.Set("k", 1)
	if s.Child("x") != nil {
		t.Fatal("Child on nil span should return nil")
	}
	if s.ChildAt("x", time.Time{}, time.Second) != nil {
		t.Fatal("ChildAt on nil span should return nil")
	}

	tr := NewTrace("q")
	if tr.Sampled() {
		t.Fatal("new trace should be unsampled")
	}
	if tr.Fine(tr.Root, "fine") != nil {
		t.Fatal("Fine on an unsampled trace should return nil")
	}
	tr.SetSampled(true)
	fine := tr.Fine(tr.Root, "fine")
	if fine == nil {
		t.Fatal("Fine on a sampled trace should create a span")
	}
	fine.End()
	if !strings.Contains(tr.String(), "fine") {
		t.Fatalf("rendered trace missing fine span:\n%s", tr.String())
	}
}

// TestUnsampledTracingZeroAlloc is the allocation gate for the hot
// path: with the trace unsampled, the sampler check plus every
// fine-span operation must cost zero heap allocations.
func TestUnsampledTracingZeroAlloc(t *testing.T) {
	tr := NewTrace("q")
	s := NewSampler(0)
	allocs := testing.AllocsPerRun(200, func() {
		if s.Sample() {
			t.Fatal("sampler disabled but sampled")
		}
		f := tr.Fine(tr.Root, "hot")
		f.Set("rows", 1)
		f.Child("inner").End()
		f.ChildAt("measured", time.Time{}, time.Millisecond)
		f.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled tracing allocates %.1f/op, want 0", allocs)
	}
}

func TestChildAtGraftsClosedSpan(t *testing.T) {
	tr := NewTrace("q")
	start := time.Now().Add(-5 * time.Millisecond)
	sp := tr.Root.ChildAt("admission-wait", start, 5*time.Millisecond)
	if sp == nil || sp.Duration != 5*time.Millisecond {
		t.Fatalf("ChildAt = %+v", sp)
	}
	sp.End() // idempotent: must not overwrite the measured duration
	if sp.Duration != 5*time.Millisecond {
		t.Fatalf("End overwrote measured duration: %v", sp.Duration)
	}
	if !strings.Contains(tr.String(), "admission-wait 5ms") {
		t.Fatalf("render missing grafted span:\n%s", tr.String())
	}
}

func TestFlightRecorderRingTopKProfile(t *testing.T) {
	fr := NewFlightRecorder(4, 2)
	for i := 1; i <= 10; i++ {
		fr.Record(&QueryProfile{
			QueryID: fmt.Sprintf("q-%d", i),
			Wall:    time.Duration(i) * time.Millisecond,
		})
	}
	rec := fr.Recent(0)
	if len(rec) != 4 {
		t.Fatalf("Recent(0) = %d profiles, want 4 (ring size)", len(rec))
	}
	for i, p := range rec {
		if want := fmt.Sprintf("q-%d", 10-i); p.QueryID != want {
			t.Fatalf("Recent[%d] = %s, want %s", i, p.QueryID, want)
		}
	}
	if got := fr.Recent(2); len(got) != 2 || got[0].QueryID != "q-10" {
		t.Fatalf("Recent(2) = %+v", got)
	}
	slow := fr.Slowest()
	if len(slow) != 2 || slow[0].QueryID != "q-10" || slow[1].QueryID != "q-9" {
		t.Fatalf("Slowest = %+v", slow)
	}
	if fr.Profile("q-10") == nil || fr.Profile("q-7") == nil {
		t.Fatal("Profile should find ring entries")
	}
	if fr.Profile("q-1") != nil {
		t.Fatal("q-1 aged out of the ring and is not in the top-K")
	}
	if fr.Profile("nope") != nil {
		t.Fatal("unknown ID should return nil")
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	fr := NewFlightRecorder(8, 2)
	for i := 1; i <= 3; i++ {
		fr.Record(&QueryProfile{QueryID: fmt.Sprintf("q-%d", i), Wall: time.Duration(i) * time.Millisecond})
	}
	h := fr.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries", nil))
	var page struct {
		Recent  []*QueryProfile `json:"recent"`
		Slowest []*QueryProfile `json:"slowest"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if len(page.Recent) != 3 || len(page.Slowest) != 2 {
		t.Fatalf("page = %d recent / %d slowest", len(page.Recent), len(page.Slowest))
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries?n=1", nil))
	page.Recent = nil
	if err := json.Unmarshal(rr.Body.Bytes(), &page); err != nil || len(page.Recent) != 1 {
		t.Fatalf("?n=1 returned %d recent (err %v)", len(page.Recent), err)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries?id=q-2", nil))
	var one QueryProfile
	if err := json.Unmarshal(rr.Body.Bytes(), &one); err != nil || one.QueryID != "q-2" {
		t.Fatalf("?id=q-2 = %+v (err %v)", one, err)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries?id=zzz", nil))
	if rr.Code != 404 {
		t.Fatalf("unknown id status = %d, want 404", rr.Code)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/queries", nil))
	if rr.Code != 405 {
		t.Fatalf("POST status = %d, want 405", rr.Code)
	}
}

// TestFlightRecorderConcurrent hammers the ring from writer goroutines
// while readers scrape Recent, Slowest, Profile, and the HTTP handler —
// the -race stress for the lock-free ring.
func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(32, 4)
	const writers, perWriter, readers = 4, 500, 4

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fr.Record(&QueryProfile{
					QueryID: fmt.Sprintf("w%d-%d", w, i),
					Wall:    time.Duration(i%64) * time.Millisecond,
				})
			}
		}(w)
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := fr.Handler()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, p := range fr.Recent(0) {
					if p.QueryID == "" {
						t.Error("incomplete profile escaped the ring")
						return
					}
				}
				fr.Slowest()
				fr.Profile("w0-1")
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries", nil))
			}
		}()
	}
	// Writers finish first; then release the readers.
	go func() {
		for fr.seq.Load() < writers*perWriter {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	wg.Wait()

	if got := fr.seq.Load(); got != writers*perWriter {
		t.Fatalf("recorded %d profiles, want %d", got, writers*perWriter)
	}
	if len(fr.Recent(0)) != 32 {
		t.Fatalf("final ring holds %d, want 32", len(fr.Recent(0)))
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 50 observations in (0,1], 50 in (1,2]: the median sits at the
	// boundary and p99 inside the second bucket.
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if p50 := h.Quantile(0.50); p50 <= 0 || p50 > 1.01 {
		t.Fatalf("p50 = %g, want ~1", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 1 || p99 > 2 {
		t.Fatalf("p99 = %g, want in (1,2]", p99)
	}
	// Observations beyond the last finite bound land in +Inf; quantiles
	// there report the highest finite bound rather than infinity.
	for i := 0; i < 1000; i++ {
		h.Observe(100)
	}
	if p99 := h.Quantile(0.99); p99 != 8 {
		t.Fatalf("+Inf-bucket p99 = %g, want 8 (highest finite bound)", p99)
	}

	// The snapshot exposition carries the same estimates.
	s := r.Snapshot()
	for _, hv := range s.Histograms {
		if hv.Name != "h" {
			continue
		}
		if hv.P50 <= 0 || hv.P95 <= 0 || hv.P99 != 8 {
			t.Fatalf("snapshot percentiles = %+v", hv)
		}
		return
	}
	t.Fatal("histogram missing from snapshot")
}
