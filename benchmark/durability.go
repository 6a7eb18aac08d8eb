package main

import (
	"fmt"
	"os"

	"repro"
)

// checkDurable reopens the database olapd was killed on and requires
// what it acknowledged: the four-dimension Query 1 gives the model's
// answer and the same rows on all three engines, before and after a
// final Compact, and after it every upserted cell reads back through
// ArrayGet with its last acknowledged value. (ArrayGet reads the chunk
// store alone, so it sees a write only once a compaction has folded it.)
// c already holds the acknowledged batches.
//
// SIGKILL leaves the operating system's page cache intact, so this
// catches writes the process had not handed to the kernel when it
// acknowledged them, not ones the kernel had not yet put on the device.
func checkDurable(path string, c *cube, acked [][]upsert) (checks, failures int, err error) {
	db, err := repro.Open(repro.Options{Path: path})
	if err != nil {
		return 0, 0, fmt.Errorf("reopen after kill: %w", err)
	}
	defer db.Close()
	fail := func(format string, args ...any) {
		if failures++; failures <= 5 {
			fmt.Fprintf(os.Stderr, "benchmark: htap durability: %s\n", fmt.Sprintf(format, args...))
		}
	}

	q1 := widePopulation(c.spec)[0]
	want := newOracle(c).answer(q1)
	for _, when := range []string{"before", "after"} {
		var first string
		for _, e := range forcedEngines {
			res, err := db.QueryOn(q1.sql, e.eng)
			if err != nil {
				return checks, failures, fmt.Errorf("query 1 on %s %s compact: %w", e.name, when, err)
			}
			checks++
			rows := fmt.Sprint(res.Rows)
			if first == "" {
				first = rows
			}
			if got := answerOf(res.Rows); got != want {
				fail("query 1 on %s %s compact: got %+v, want %+v", e.name, when, got, want)
			} else if rows != first {
				fail("query 1 on %s %s compact: rows differ from %s's", e.name, when, forcedEngines[0].name)
			}
		}
		if when == "before" {
			if err := db.Compact(); err != nil {
				return checks, failures, fmt.Errorf("final compact: %w", err)
			}
			keys := make([]int64, len(c.spec.dims))
			for _, batch := range acked {
				for _, u := range batch {
					c.spec.keysOf(u.id, keys)
					v, ok, err := db.ArrayGet(keys)
					if err != nil {
						return checks, failures, err
					}
					checks++
					if !ok || v != int64(c.vals[u.id]) {
						fail("ArrayGet(%v) = %d, %v; acknowledged %d", keys, v, ok, c.vals[u.id])
					}
				}
			}
		}
	}
	return checks, failures, nil
}
