package exec

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/query"
)

// stmtMemoCap bounds the statement memo. A dashboard's fixed statement
// population is a few hundred; past the cap an arbitrary entry makes
// room, so an unbounded stream of distinct statements costs one map
// insert and one delete per query and no more memory than this.
const (
	stmtMemoBits = 10
	stmtMemoCap  = 1 << stmtMemoBits
)

// stmtKey is everything a plan depends on besides the catalog: the
// statement text as sent, the requested engine and the resolved parallel
// degree.
type stmtKey struct {
	sql     string
	engine  Engine
	workers int
}

// statement is the part of a query that is the same every time it runs
// within one catalog generation: the compiled spec, the chosen plan,
// the planner's account of the choice and the result-cache key up to
// the delta-version suffix. It is immutable once built — executions
// share it — so Plan.Run and Plan.Annotate must not write to the plan,
// and a query that reports per-run facts takes its own copy of expl.
// What runs do fill in, reach (shared with the plan) and the two key
// slots, is synchronised.
type statement struct {
	spec        *query.Spec
	plan        Plan
	expl        *Explanation
	est         Cost
	fingerprint string
	fpHash      string // fingerprintHash(fingerprint)
	reach       *chunkReach

	// rowsKey is the result-cache key the rows were last stored or found
	// under. Its delta suffix moves with every ingest batch the statement
	// can see, and no later run asks for an older one. coldKey is the
	// array plan's cold cube's: it moves when a chunk in reach is first
	// ingested into.
	rowsKey, coldKey keySlot
}

// keySlot is the result-cache key one of a statement's entries is under.
type keySlot struct{ last atomic.Pointer[string] }

// cachedUnder notes that rc holds the entry under key, and drops the
// entry it superseded instead of leaving it to the LRU.
func (s *keySlot) cachedUnder(rc *cache.ResultCache, key string) {
	prev := s.last.Load()
	if prev != nil && *prev == key {
		return
	}
	next := new(string) // not &key: that would heap-allocate on every hit
	*next = key
	if s.last.CompareAndSwap(prev, next) && prev != nil {
		rc.Remove(*prev)
	}
}

// stmtMemo maps statement text to its statement, so a repeated
// statement skips lex, parse, compile and plan. Each generation has its
// own: a catalog change leaves the memoised plans behind with everything
// else. A statement is kept from its second sighting on: a stream of
// statements that never repeat (ad hoc selections) then retains nothing,
// where keeping each until it was pushed out put a thousand plan trees
// in front of every garbage collection for no hit at all.
type stmtMemo struct {
	mu   sync.Mutex
	m    map[stmtKey]*statement
	seen *sightings
}

// sightings remembers which statement keys were put before. Which texts
// repeat is a fact about the clients, not the catalog, so one table
// outlives the generations: a statement known to repeat is kept again on
// its first run after a swap. Per slot, the hash of the last key put
// there; a collision only admits a statement one sighting early or late.
type sightings struct {
	seed maphash.Seed
	slot [stmtMemoCap]atomic.Uint64
}

func newSightings() *sightings { return &sightings{seed: maphash.MakeSeed()} }

// again reports whether k was the last key seen in its slot, and leaves
// it there.
func (s *sightings) again(k stmtKey) bool {
	h := maphash.String(s.seed, k.sql) ^ (uint64(k.engine)<<48 | uint64(k.workers)<<32)
	h *= 0x9e3779b97f4a7c15 // spread the key's small fields over the slot bits
	return s.slot[h>>(64-stmtMemoBits)].Swap(h) == h
}

func (m *stmtMemo) get(k stmtKey) *statement {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[k]
}

func (m *stmtMemo) put(k stmtKey, st *statement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen == nil {
		m.seen = newSightings() // a memo outside any generation
	}
	if !m.seen.again(k) {
		return
	}
	if m.m == nil {
		m.m = make(map[stmtKey]*statement)
	}
	if _, ok := m.m[k]; !ok && len(m.m) >= stmtMemoCap {
		for victim := range m.m {
			delete(m.m, victim)
			break
		}
	}
	m.m[k] = st
}
