package repro

import (
	"testing"

	"repro/internal/core"
)

func TestDBCube(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	cuboids, err := db.Cube(`
		select sum(volume), type, city
		from fact, product, store
		group by type, city`)
	if err != nil {
		t.Fatalf("Cube: %v", err)
	}
	if len(cuboids) != 4 { // {}, {type}, {city}, {type,city}
		t.Fatalf("cuboids = %d, want 4", len(cuboids))
	}

	// Every cuboid must match a direct query with that GROUP BY.
	for _, c := range cuboids {
		sql := "select sum(volume) from fact, product, store"
		if len(c.GroupAttrs) > 0 {
			sql += " group by " + join(c.GroupAttrs)
		}
		direct, err := db.QueryOn(sql, ArrayEngine)
		if err != nil {
			t.Fatalf("direct query for %v: %v", c.GroupAttrs, err)
		}
		if !core.RowsEqual(c.Rows, direct.Rows) {
			t.Fatalf("cuboid %v differs from direct query: %s",
				c.GroupAttrs, core.DiffRows(c.Rows, direct.Rows))
		}
	}

	// Selections are rejected.
	if _, err := db.Cube(`select sum(volume) from fact, product where type = 'x' group by category`); err == nil {
		t.Fatal("Cube with selection succeeded")
	}
}

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

func TestDBQueryParallel(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadRetail(t, db)

	serial, err := db.QueryOn(retailQuery, ArrayEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		sess := db.Session()
		sess.SetParallel(workers)
		par, err := sess.QueryOn(retailQuery, ArrayEngine)
		if err != nil {
			t.Fatalf("parallel %d: %v", workers, err)
		}
		if !core.RowsEqual(par.Rows, serial.Rows) {
			t.Fatalf("parallel(%d) != serial: %s", workers, core.DiffRows(par.Rows, serial.Rows))
		}
		if d := par.Metrics.ParallelDegree; workers > 1 && (d < 2 || d > workers) {
			t.Fatalf("parallel %d ran at degree %d", workers, d)
		}
	}
}
