package exec

import (
	"context"

	"repro/internal/core"
)

// Cluster plumbing on the executor side. A data server in a sharded
// cluster executes sub-queries: ordinary queries restricted to one
// shard's slice of the data (core.Restriction). The restriction reaches
// the planner two ways:
//
//   - per-query: a SubQuery riding on the context (the wire protocol's
//     sub-query frame), which wins, and
//   - per-executor: a default shard range (the olapd -shard-range flag),
//     applied to every query this executor plans.
//
// Either way the restriction is injected into the plan exactly like the
// parallel degree, lands in the cache fingerprint (a shard's partial
// rows must never be served for the whole answer), and annotates
// EXPLAIN.

// SubQuery identifies the slice of a distributed query one shard
// executes: shard Shard of Shards, with an optional worker override
// from the coordinator (0 keeps the session's parallel degree).
type SubQuery struct {
	Shard   int
	Shards  int
	Workers int
}

type subQueryKey struct{}

// ContextWithSubQuery attaches a sub-query restriction to the context;
// a query picks it up in preference to the executor's default shard
// range.
func ContextWithSubQuery(ctx context.Context, sq SubQuery) context.Context {
	return context.WithValue(ctx, subQueryKey{}, sq)
}

// SubQueryFromContext reports the sub-query restriction attached to the
// context, if any.
func SubQueryFromContext(ctx context.Context) (SubQuery, bool) {
	sq, ok := ctx.Value(subQueryKey{}).(SubQuery)
	return sq, ok
}

// SetShardRange pins a default data restriction on this executor: every
// query it plans runs as shard `shard` of `shards`. shards <= 1 clears
// the restriction. Atomic for the same reason as the other session
// switches: a server session's option frames race in-flight queries.
func (e *Executor) SetShardRange(shard, shards int) error {
	r := core.Restriction{Shard: shard, Shards: shards}
	if err := r.Validate(); err != nil {
		return err
	}
	if !r.Active() {
		e.shardRange.Store(0)
		return nil
	}
	e.shardRange.Store(uint64(shards)<<32 | uint64(uint32(shard)))
	return nil
}

// ShardRange reports the executor's default shard restriction;
// (0, 0) means unrestricted.
func (e *Executor) ShardRange() (shard, shards int) {
	v := e.shardRange.Load()
	return int(uint32(v)), int(v >> 32)
}

// defaultRestriction is ShardRange as a core.Restriction.
func (e *Executor) defaultRestriction() core.Restriction {
	s, n := e.ShardRange()
	return core.Restriction{Shard: s, Shards: n}
}

// shardFor resolves the effective restriction and worker override for
// one query: a SubQuery on the context (a wire sub-query frame) wins
// over the executor's default shard range.
func (e *Executor) shardFor(ctx context.Context) (core.Restriction, int) {
	if sq, ok := SubQueryFromContext(ctx); ok {
		return core.Restriction{Shard: sq.Shard, Shards: sq.Shards}, sq.Workers
	}
	return e.defaultRestriction(), 0
}
