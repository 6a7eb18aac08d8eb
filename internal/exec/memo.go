package exec

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
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
// statement text as sent, the requested engine, the shard window and
// the resolved parallel degree.
type stmtKey struct {
	sql     string
	engine  Engine
	shard   core.Restriction
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

	// What the plan was chosen under; a lookup at any other pair misses.
	epoch    uint64
	statsGen int64
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
// statement skips lex, parse, compile and plan. A statement is kept from
// its second sighting on: a stream of statements that never repeat (ad
// hoc selections) then retains nothing, where keeping each until it was
// pushed out put a thousand plan trees in front of every garbage
// collection for no hit at all.
type stmtMemo struct {
	mu sync.Mutex
	m  map[stmtKey]*statement
	// seen holds, per slot, the hash of the last key put there: a key
	// whose hash is already in its slot has been seen before. A collision
	// only admits a statement one sighting early or late.
	seen [stmtMemoCap]uint64
	seed maphash.Seed
}

func (m *stmtMemo) get(k stmtKey, epoch uint64, statsGen int64) *statement {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.m[k]; st != nil && st.epoch == epoch && st.statsGen == statsGen {
		return st
	}
	return nil
}

func (m *stmtMemo) put(k stmtKey, st *statement) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[stmtKey]*statement)
	}
	if m.seed == (maphash.Seed{}) {
		m.seed = maphash.MakeSeed()
	}
	h := maphash.String(m.seed, k.sql) ^ (uint64(k.engine)<<48 | uint64(k.workers)<<32 |
		uint64(k.shard.Shard)<<16 | uint64(k.shard.Shards))
	h *= 0x9e3779b97f4a7c15 // spread the key's small fields over the slot bits
	if slot := &m.seen[h>>(64-stmtMemoBits)]; *slot != h {
		*slot = h
		return
	}
	if _, ok := m.m[k]; !ok && len(m.m) >= stmtMemoCap {
		for victim := range m.m {
			delete(m.m, victim)
			break
		}
	}
	m.m[k] = st
}

func (m *stmtMemo) clear() {
	m.mu.Lock()
	m.m = nil
	m.mu.Unlock()
}
