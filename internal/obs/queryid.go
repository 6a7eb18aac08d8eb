package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Query IDs name one query execution end to end: the client (or the
// session, for embedded use) mints one, the wire frame carries it, the
// executor stamps it into the trace, the slow-query log, the flight
// recorder, and pprof labels. The format is <instance>-<seq>: an
// 8-hex-digit per-process random prefix so IDs from different clients
// never collide, and an 8-hex-digit sequence so IDs sort in issue
// order within a process.

var (
	qidPrefix = func() uint32 {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Fall back to the start time; uniqueness degrades from
			// cryptographic to merely unlikely-to-collide.
			return uint32(time.Now().UnixNano())
		}
		return binary.BigEndian.Uint32(b[:])
	}()
	qidSeq atomic.Uint64
)

// NewQueryID mints a process-unique query ID, e.g. "3f9ac2d1-00000017".
func NewQueryID() string {
	return fmt.Sprintf("%08x-%08x", qidPrefix, uint32(qidSeq.Add(1)))
}

// QueryTag is the per-query trace context handed across layer
// boundaries via context.Context. The server builds one per query frame
// (carrying the client-minted ID and any admission wait it measured);
// the executor reads it, or mints a fresh tag for embedded callers.
type QueryTag struct {
	// ID is the query ID. Empty means the executor mints one.
	ID string
	// TraceOn asks the executor for the fully sampled span tree, set
	// when the session has TRACE on.
	TraceOn bool
	// AdmissionWait is the time the query spent queued for an
	// admission slot before execution began, measured by the server.
	AdmissionWait time.Duration
}

type queryTagKey struct{}

// ContextWithQueryTag attaches a query tag to ctx.
func ContextWithQueryTag(ctx context.Context, t *QueryTag) context.Context {
	return context.WithValue(ctx, queryTagKey{}, t)
}

// QueryTagFromContext returns the query tag attached to ctx, or nil.
func QueryTagFromContext(ctx context.Context) *QueryTag {
	t, _ := ctx.Value(queryTagKey{}).(*QueryTag)
	return t
}

// Sampler decides which queries get fine-grained spans: 1 in every N,
// counted atomically, so the decision is one atomic add — zero
// allocations, safe on the per-query hot path. TRACE on bypasses the
// sampler entirely (an explicitly traced query is always sampled).
type Sampler struct {
	every atomic.Uint64
	n     atomic.Uint64
}

// NewSampler creates a sampler that samples 1 in every queries;
// every <= 0 never samples, 1 samples everything.
func NewSampler(every int) *Sampler {
	s := &Sampler{}
	s.SetEvery(every)
	return s
}

// SetEvery changes the sampling rate; every <= 0 disables sampling.
func (s *Sampler) SetEvery(every int) {
	if every < 0 {
		every = 0
	}
	s.every.Store(uint64(every))
}

// Sample reports whether this query should collect fine-grained spans.
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	e := s.every.Load()
	if e == 0 {
		return false
	}
	// 1%e makes the first query of each window the sampled one (and
	// degenerates correctly for e==1, where every query samples).
	return s.n.Add(1)%e == 1%e
}
