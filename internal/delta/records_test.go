package delta

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// readAll reopens the record file at path and returns its payloads.
func readAll(t *testing.T, path string) []string {
	t.Helper()
	var got []string
	r, err := OpenRecords(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// tornWriter writes the first half of its first write, then fails;
// later writes go through, as on a device that recovered.
type tornWriter struct {
	f    io.Writer
	torn bool
}

func (w *tornWriter) Write(p []byte) (int, error) {
	if w.torn {
		return w.f.Write(p)
	}
	w.torn = true
	n, _ := w.f.Write(p[:len(p)/2])
	return n, errors.New("no space left on device")
}

// TestRecordsFailedWriteRefusesAppends: a write that tears a record
// fails the file, so no later record can be acknowledged behind the
// torn one — where the next open's scan would cut it off.
func TestRecordsFailedWriteRefusesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	r, err := OpenRecords(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	appendSync := func(s string) error {
		if err := r.Append([]byte(s)); err != nil {
			return err
		}
		if err := r.Sync(); err != nil {
			return err
		}
		acked = append(acked, s)
		return nil
	}
	for _, s := range []string{"one", "two"} {
		if err := appendSync(s); err != nil {
			t.Fatal(err)
		}
	}
	r.w.Reset(&tornWriter{f: r.f})
	if err := appendSync("three, torn in half on its way out"); err == nil {
		t.Fatal("a torn write was acknowledged")
	}
	// The device is back, but the file ends in a torn record.
	r.w.Reset(r.f)
	for _, s := range []string{"four", "five"} {
		if err := appendSync(s); err == nil {
			t.Fatalf("append %q after a failed write succeeded", s)
		}
	}
	if err := r.Rewrite([][]byte{[]byte("six")}); err == nil {
		t.Fatal("rewrite of a failed file succeeded")
	}
	r.Close()
	if got := readAll(t, path); !reflect.DeepEqual(got, acked) {
		t.Fatalf("replayed %q, want every acknowledged record %q", got, acked)
	}
}

// TestRecordsRewriteKeepsAppending: after a rewrite the file holds the
// new records, and appends land behind them in the renamed file.
func TestRecordsRewriteKeepsAppending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	r, err := OpenRecords(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a", "b", "c"} {
		if err := r.Append([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Rewrite([][]byte{[]byte("c"), []byte("")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != 3*frameHeaderSize+2 {
		t.Fatalf("file after the sync = %v, %v; want %d bytes", st, err, 3*frameHeaderSize+2)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := readAll(t, path), []string{"c", "", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// TestScanHugeLengthAllocatesNothing: a header claiming a 1 GiB record
// in a file of a few bytes is a torn tail, found without reserving the
// claimed size.
func TestScanHugeLengthAllocatesNothing(t *testing.T) {
	data := []byte{0, 0, 0, 0x40, 1, 2, 3, 4, 'x'}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end, err := scanFrames(bytes.NewReader(data), int64(len(data)), func([]byte) error { return nil })
	runtime.ReadMemStats(&after)
	if err != nil || end != 0 {
		t.Fatalf("scan = (%d, %v), want an empty prefix", end, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("scan of %d bytes allocated %d bytes", len(data), grew)
	}
}

// FuzzRecordScan: the scan never panics, never allocates past the bytes
// it was given, and the payloads it yields, framed again, are exactly
// the prefix it called intact.
func FuzzRecordScan(f *testing.F) {
	var seed bytes.Buffer
	for _, p := range []string{"", "x", "a longer record payload"} {
		writeFrame(&seed, []byte(p))
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var reframed bytes.Buffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		end, err := scanFrames(bytes.NewReader(data), int64(len(data)), func(p []byte) error {
			return writeFrame(&reframed, p)
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("intact prefix %d of %d bytes", end, len(data))
		}
		if !bytes.Equal(reframed.Bytes(), data[:end]) {
			t.Fatalf("reframed payloads differ from the %d-byte intact prefix", end)
		}
		// The reframed copy is at most the input; the slack covers the
		// runtime's own bookkeeping.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*uint64(len(data))+1<<20 {
			t.Fatalf("scan of %d bytes allocated %d bytes", len(data), grew)
		}
	})
}
