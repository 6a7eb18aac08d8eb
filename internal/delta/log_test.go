package delta

import (
	"context"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chunk"
)

// goldenBatches were applied, in order, to a fresh store; goldenLog is
// the delta log that store wrote, and goldenDrained the log after it
// drained chunk 7. Both were written by the delta log's own framing
// code, before it moved onto wal.Records.
var goldenBatches = [][]Cell{
	{{Chunk: 0, Offset: 1, Value: 5}, {Chunk: 3, Offset: 300, Value: -7}},
	{{Chunk: 0, Offset: 1, Value: 6}, {Chunk: 200, Offset: 70000, Value: 1 << 40}},
	{{Chunk: 3, Offset: 300, Delete: true}, {Chunk: 7, Offset: 0, Value: 0}},
}

const (
	goldenLog = "0a0000007fff09680200010a0003ac020d001100000035bec6bd0200010c00c801f0a2" +
		"04808080808040000a000000458602c20203ac02000107000000"
	goldenDrained = "050000008329bc0b0100010c0006000000c8f9ce450103ac0200010d000000d9a1f6cd" +
		"01c801f0a20480808080804000"
)

// TestGoldenLogBytes: the log's bytes are those the previous framing
// code wrote — for appends and for a drain's rewrite — and a log it
// wrote replays to the same overlay.
func TestGoldenLogBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.deltawal")
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches {
		if err := s.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := os.ReadFile(path); hex.EncodeToString(got) != goldenLog {
		t.Fatalf("log bytes = %x\nwant        %s", got, goldenLog)
	}
	_, want, versions, _ := s.Snapshot()
	if err := s.Drain(map[int]uint64{7: versions[7]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); hex.EncodeToString(got) != goldenDrained {
		t.Fatalf("drained log bytes = %x\nwant                %s", got, goldenDrained)
	}

	for name, log := range map[string]string{"appended": goldenLog, "drained": goldenDrained} {
		raw, _ := hex.DecodeString(log)
		p := filepath.Join(dir, name+".deltawal")
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, got, _, _ := re.Snapshot()
		re.Close()
		wantNow := want
		if name == "drained" {
			wantNow = map[int][]chunk.OverlayCell{}
			for cn, cells := range want {
				if cn != 7 {
					wantNow[cn] = cells
				}
			}
		}
		if !reflect.DeepEqual(got, wantNow) {
			t.Fatalf("%s log replays to %v, want %v", name, got, wantNow)
		}
	}
}

// FuzzDecodeBatch: decoding never panics, and a batch that decodes
// re-encodes to a payload that decodes to the same cells.
func FuzzDecodeBatch(f *testing.F) {
	for _, b := range goldenBatches {
		f.Add(encodeBatch(b))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, payload []byte) {
		cells, err := decodeBatch(payload)
		if err != nil {
			return
		}
		again, err := decodeBatch(encodeBatch(cells))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, cells) {
			t.Fatalf("re-encoded batch decodes to %v, want %v", again, cells)
		}
	})
}
