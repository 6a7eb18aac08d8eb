package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// QueryProfile is one completed query's flight-recorder record: the
// fixed-size summary that survives after the result (and any trace) is
// gone. Records are immutable once handed to FlightRecorder.Record.
type QueryProfile struct {
	// Seq is the recorder-assigned record number, ascending in
	// completion order. Filled by Record.
	Seq uint64 `json:"seq"`

	QueryID     string `json:"query_id"`
	SQL         string `json:"sql,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"` // normalized plan fingerprint hash
	Plan        string `json:"plan,omitempty"`
	Engine      string `json:"engine,omitempty"`
	Degree      int    `json:"parallel_degree,omitempty"`

	CacheHit   bool   `json:"cache_hit"`
	CacheEpoch uint64 `json:"cache_epoch,omitempty"`
	// Memo is "hit" when the statement's text was in the executor's
	// statement memo (parse, compile and plan skipped; PlanTime is then
	// the lookup), "miss" when it was planned for this run.
	Memo string `json:"memo,omitempty"`

	Rows          int     `json:"rows"`
	EstIO         float64 `json:"est_io,omitempty"`
	EstRows       int64   `json:"est_rows,omitempty"`
	PhysicalReads uint64  `json:"physical_reads"`
	LogicalReads  uint64  `json:"logical_reads"`
	ArenaBytes    int64   `json:"arena_bytes,omitempty"`

	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wall_ns"`

	// Wait breakdown: where the wall time went. AdmissionWait is the
	// server-side queue for a slot, CacheWait the result-cache probe
	// plus any singleflight-follower wait, Plan/Exec/Sort the executor
	// phases. The parts need not sum to Wall (parse and framing are
	// uncounted).
	AdmissionWait time.Duration `json:"admission_wait_ns,omitempty"`
	CacheWait     time.Duration `json:"cache_wait_ns,omitempty"`
	PlanTime      time.Duration `json:"plan_ns,omitempty"`
	ExecTime      time.Duration `json:"exec_ns,omitempty"`
	SortTime      time.Duration `json:"sort_ns,omitempty"`

	// What pending deltas cost a relational execution (part of ExecTime):
	// the ever-touched chunks the statement could reach, how many of them
	// the overlay fold read, and the cells it probed and filter-scanned
	// there. All zero when nothing the query can see was ingested into, on
	// a cache hit, and on the array engine, which merges deltas as it reads.
	FoldTouched int64         `json:"fold_touched,omitempty"`
	FoldChunks  int64         `json:"fold_chunks,omitempty"`
	FoldProbes  int64         `json:"fold_probes,omitempty"`
	FoldScanned int64         `json:"fold_scanned,omitempty"`
	FoldTime    time.Duration `json:"fold_ns,omitempty"`

	// An array-engine run under live ingest that was split at the
	// ingest-touched chunks: Cold is "hit" when the cube of the chunks
	// never touched came from the result cache, "built" when this run
	// aggregated and stored it; HotChunks is how many touched chunks the
	// statement reaches, the only ones a "hit" run read. Empty and zero on
	// a run that was not split, and on a cache hit.
	Cold      string `json:"cold,omitempty"`
	HotChunks int64  `json:"hot_chunks,omitempty"`

	Sampled bool   `json:"sampled,omitempty"` // fine-grained spans were collected
	Err     string `json:"error,omitempty"`
}

// FlightRecorder keeps the last N query profiles in a fixed-size ring
// plus the K slowest seen since startup. The ring is lock-free: one
// atomic increment claims a slot, one atomic pointer store publishes
// the record, and readers snapshot slots without blocking writers. The
// top-K set takes a mutex, but only when a query is slow enough to
// belong in it (an atomic threshold check skips the lock otherwise).
type FlightRecorder struct {
	ring []atomic.Pointer[QueryProfile]
	seq  atomic.Uint64

	topK    int
	slowBar atomic.Int64 // Wall of the K-th slowest; entry fee for the lock
	mu      sync.Mutex   // guards slowest
	slowest []*QueryProfile
}

// DefaultFlightRecorderSize is the ring capacity used by databases that
// do not configure one.
const DefaultFlightRecorderSize = 256

// DefaultFlightRecorderTopK is the number of slowest queries retained
// beyond the ring.
const DefaultFlightRecorderTopK = 16

// NewFlightRecorder creates a recorder holding the last size profiles
// and the topK slowest ever. size and topK are clamped to at least 1.
func NewFlightRecorder(size, topK int) *FlightRecorder {
	if size < 1 {
		size = 1
	}
	if topK < 1 {
		topK = 1
	}
	return &FlightRecorder{
		ring: make([]atomic.Pointer[QueryProfile], size),
		topK: topK,
	}
}

// Record publishes a completed query's profile. p must not be mutated
// afterwards. Safe for concurrent use; nil recorders and nil profiles
// are ignored.
func (f *FlightRecorder) Record(p *QueryProfile) {
	if f == nil || p == nil {
		return
	}
	seq := f.seq.Add(1)
	p.Seq = seq
	f.ring[(seq-1)%uint64(len(f.ring))].Store(p)

	// Top-K: skip the lock unless this query beats the current bar.
	if int64(p.Wall) <= f.slowBar.Load() {
		return
	}
	f.mu.Lock()
	f.slowest = append(f.slowest, p)
	sort.Slice(f.slowest, func(i, j int) bool { return f.slowest[i].Wall > f.slowest[j].Wall })
	if len(f.slowest) > f.topK {
		f.slowest = f.slowest[:f.topK]
	}
	if len(f.slowest) == f.topK {
		f.slowBar.Store(int64(f.slowest[f.topK-1].Wall))
	}
	f.mu.Unlock()
}

// Recent returns up to n profiles, most recent first. n <= 0 means the
// whole ring. Slots being overwritten concurrently are simply skipped —
// every returned profile is complete and internally consistent.
func (f *FlightRecorder) Recent(n int) []*QueryProfile {
	if f == nil {
		return nil
	}
	size := uint64(len(f.ring))
	if n <= 0 || uint64(n) > size {
		n = int(size)
	}
	latest := f.seq.Load()
	out := make([]*QueryProfile, 0, n)
	for i := latest; i > 0 && len(out) < n && latest-i < size; i-- {
		p := f.ring[(i-1)%size].Load()
		// A slot may already hold a record newer than the one we
		// walked to (a writer lapped us); the Seq check drops it.
		if p != nil && p.Seq == i {
			out = append(out, p)
		}
	}
	return out
}

// Slowest returns the retained top-K slowest queries, slowest first.
func (f *FlightRecorder) Slowest() []*QueryProfile {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	out := append([]*QueryProfile(nil), f.slowest...)
	f.mu.Unlock()
	return out
}

// Profile finds a query by ID, searching the ring first, then the
// slowest set. Returns nil when the record has aged out.
func (f *FlightRecorder) Profile(id string) *QueryProfile {
	if f == nil {
		return nil
	}
	for _, p := range f.Recent(0) {
		if p.QueryID == id {
			return p
		}
	}
	for _, p := range f.Slowest() {
		if p.QueryID == id {
			return p
		}
	}
	return nil
}

// Handler serves the recorder as JSON, the /debug/queries endpoint:
//
//	GET /debug/queries          -> {"recent": [...], "slowest": [...]}
//	GET /debug/queries?n=10     -> only the 10 most recent
//	GET /debug/queries?id=<qid> -> the one profile, or 404
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id := req.URL.Query().Get("id"); id != "" {
			p := f.Profile(id)
			if p == nil {
				http.Error(w, "no such query", http.StatusNotFound)
				return
			}
			enc.Encode(p)
			return
		}
		n := 0
		if s := req.URL.Query().Get("n"); s != "" {
			n, _ = strconv.Atoi(s)
		}
		enc.Encode(struct {
			Recent  []*QueryProfile `json:"recent"`
			Slowest []*QueryProfile `json:"slowest"`
		}{f.Recent(n), f.Slowest()})
	})
}
