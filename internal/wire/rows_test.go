package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// testRows is n result rows shaped like the benchmark's wide statement:
// four short labels and full aggregate state.
func testRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Groups: []string{fmt.Sprintf("AA%d", i%40), fmt.Sprintf("AB%d", i%37), fmt.Sprintf("AC%d", i%31), fmt.Sprintf("AD%d", i%100)},
			Sum:    int64(i) * 7919,
			Count:  int64(i%50 + 1),
			Min:    -int64(i),
			Max:    int64(i) * 13,
		}
	}
	return rows
}

// TestRowImageMatchesRowBatch: an image's batches are byte for byte the
// payloads Encode produces for a RowBatch, minus the request ID, for a batch
// size that does not divide the row count, and decode back to the rows.
func TestRowImageMatchesRowBatch(t *testing.T) {
	rows := testRows(1000)
	for _, batch := range []int{1, 7, 256, 1000, 5000} {
		img := AppendRowImage(nil, rows, batch)
		rest := img
		for off := 0; off < len(rows); off += batch {
			want := Encode(&RowBatch{ID: 9, Rows: rows[off:min(off+batch, len(rows))]})
			var body []byte
			body, rest = rest.Next()
			if !bytes.Equal(body, want[4:]) {
				t.Fatalf("batch size %d: batch at row %d differs from Encode's RowBatch", batch, off)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("batch size %d: %d bytes left after the last batch", batch, len(rest))
		}
		got, err := img.Rows()
		if err != nil || !reflect.DeepEqual(got, rows) {
			t.Fatalf("batch size %d: image decodes to %d rows (err %v), want the %d encoded", batch, len(got), err, len(rows))
		}
	}
	if img := AppendRowImage(nil, []Row(nil), 256); len(img) != 0 {
		t.Fatalf("no rows make an image of %d bytes", len(img))
	}
	if _, err := RowImage([]byte{0, 0, 0, 9, 1}).Rows(); err == nil {
		t.Fatal("a truncated image decoded")
	}
}

// TestRowBatchDecodeAllocs gates the batch-backed decode: a full batch
// costs the frame struct, the rows, one string under every label and one
// slice under every Groups — not five objects per row.
func TestRowBatchDecodeAllocs(t *testing.T) {
	payload := Encode(&RowBatch{ID: 1, Rows: testRows(DefaultBatchRows)})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeAs[RowBatch](payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("decoding a %d-row batch allocates %.0f objects, want at most 4", DefaultBatchRows, allocs)
	}
}

// TestRowBatchDecodeGroupsDoNotAlias: rows share one backing slice for
// their labels, so each row's Groups must be capped at its own length —
// appending to one row's must not overwrite the next row's first label.
func TestRowBatchDecodeGroupsDoNotAlias(t *testing.T) {
	rb, err := decodeAs[RowBatch](Encode(&RowBatch{ID: 1, Rows: testRows(3)}))
	if err != nil {
		t.Fatal(err)
	}
	next := rb.Rows[1].Groups[0]
	rb.Rows[0].Groups = append(rb.Rows[0].Groups, "extra")
	if rb.Rows[1].Groups[0] != next {
		t.Fatalf("appending to row 0's groups overwrote row 1's first label: %q", rb.Rows[1].Groups[0])
	}
}

// TestDecodeBoundsPreallocation: a count read off the wire must not size
// an allocation beyond what the payload's remaining bytes could hold and
// a fixed ceiling. Each payload claims a million elements — as many as it
// has bytes, which is all the old check asked — and fails to parse at the
// first one; refusing it must cost kilobytes, where it cost 56 MiB for
// rows (56 B per claimed row) and 16 MiB per string list.
func TestDecodeBoundsPreallocation(t *testing.T) {
	junk := bytes.Repeat([]byte{0x80}, 1<<20) // never a complete varint
	count := binary.AppendUvarint(nil, uint64(len(junk)))
	for name, decode := range map[string]func() error{
		"row batch": func() error {
			_, err := decodeAs[RowBatch](append(append([]byte{0, 0, 0, 1}, count...), junk...))
			return err
		},
		"row labels": func() error {
			_, err := decodeAs[RowBatch](append(append([]byte{0, 0, 0, 1, 1}, count...), junk...))
			return err
		},
		"header attributes": func() error {
			_, err := decodeAs[ResultHeader](append(append([]byte{0, 0, 0, 1, 0, 0}, count...), junk...))
			return err
		},
		"ingest cells": func() error {
			_, err := decodeAs[Ingest](append(append([]byte{0, 0, 0, 1}, count...), junk...))
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded a payload whose count exceeds what its bytes hold", name)
		}
		// 3 MiB covers building the payload (three appends of 1 MiB) and
		// the label decoder's one copy of it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: refusing a 1 MiB payload allocated %d KiB", name, grew>>10)
		}
	}
}

func BenchmarkDecodeRowBatch(b *testing.B) {
	payload := Encode(&RowBatch{ID: 1, Rows: testRows(DefaultBatchRows)})
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := decodeAs[RowBatch](payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/DefaultBatchRows, "ns/row")
}
