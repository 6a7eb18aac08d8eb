package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// frame is any payload struct.
type frame = Frame

// frames makes an empty frame of every type in wire.go that carries a
// payload (Ping and Pong do not), for Decode to fill.
var frames = map[FrameType]func() Frame{
	FrameHello:            func() Frame { return new(Hello) },
	FrameQuery:            func() Frame { return new(Query) },
	FrameExplain:          func() Frame { return new(Explain) },
	FrameCancel:           func() Frame { return new(Cancel) },
	FrameSetOption:        func() Frame { return new(SetOption) },
	FrameGetProfiles:      func() Frame { return new(GetProfiles) },
	FrameIngest:           func() Frame { return new(Ingest) },
	FrameDeltaStats:       func() Frame { return new(DeltaStatsReq) },
	FrameCompact:          func() Frame { return new(CompactReq) },
	FrameHelloAck:         func() Frame { return new(HelloAck) },
	FrameResultHeader:     func() Frame { return new(ResultHeader) },
	FrameRowBatch:         func() Frame { return new(RowBatch) },
	FrameResultDone:       func() Frame { return new(ResultDone) },
	FrameExplainResult:    func() Frame { return new(ExplainResult) },
	FrameError:            func() Frame { return new(ErrorFrame) },
	FrameOptionAck:        func() Frame { return new(OptionAck) },
	FrameProfilesResult:   func() Frame { return new(ProfilesResult) },
	FrameIngestAck:        func() Frame { return new(IngestAck) },
	FrameDeltaStatsResult: func() Frame { return new(DeltaStatsResult) },
	FrameCompactAck:       func() Frame { return new(CompactAck) },
}

// seeds is one frame of every payload-carrying type: the fuzz corpus's
// starting points and the frames TestFrameGoldenBytes pins.
var seeds = map[FrameType]frame{
	FrameHello:        &Hello{Version: Version},
	FrameQuery:        &Query{ID: 1, Engine: Bitmap, SQL: "select sum(volume) from fact", TraceID: "3f9ac2d1-00000017"},
	FrameExplain:      &Explain{ID: 2, Engine: Auto, SQL: "explain analyze select sum(volume) from fact"},
	FrameCancel:       &Cancel{ID: 3},
	FrameSetOption:    &SetOption{ID: 4, Name: "PARALLEL", Value: "4"},
	FrameGetProfiles:  &GetProfiles{ID: 5, QueryID: "3f9ac2d1-00000017", Limit: 10},
	FrameIngest:       &Ingest{ID: 7, Cells: []IngestCell{{Keys: []int64{1, -2, 3}, Value: 55}, {Keys: []int64{0}, Delete: true}}},
	FrameDeltaStats:   &DeltaStatsReq{ID: 8},
	FrameCompact:      &CompactReq{ID: 9},
	FrameHelloAck:     &HelloAck{Version: Version, Server: "repro-olapd/1"},
	FrameResultHeader: &ResultHeader{ID: 1, Plan: "bitmap-factfile", Engine: Bitmap, GroupAttrs: []string{"h01", "h11"}, Aggs: []uint8{0, 1}},
	FrameRowBatch: &RowBatch{ID: 1, Rows: []Row{
		{Groups: []string{"AA0", "AA1"}, Sum: -7, Count: 2, Min: -9, Max: 2}, {Groups: []string{}, Sum: 1 << 40}}},
	FrameResultDone:       &ResultDone{ID: 1, ElapsedNS: 184000, Rows: 2, QueryID: "3f9ac2d1-00000017", Trace: "query 184µs\n"},
	FrameExplainResult:    &ExplainResult{ID: 2, Chosen: "array-consolidate", Engine: Array, Text: "plan\n"},
	FrameError:            &ErrorFrame{ID: 1, Code: CodeUnsupported, Message: "not supported", QueryID: "3f9ac2d1-00000017"},
	FrameOptionAck:        &OptionAck{ID: 4},
	FrameProfilesResult:   &ProfilesResult{ID: 5, JSON: `{"recent":[]}`},
	FrameIngestAck:        &IngestAck{ID: 7, Cells: 2},
	FrameDeltaStatsResult: &DeltaStatsResult{ID: 8, Cells: 2, Bytes: 96, DirtyChunks: 1, TouchedChunks: 1, BudgetBytes: 64 << 20, Compactions: 3},
	FrameCompactAck:       &CompactAck{ID: 9, ElapsedNS: 1500000},
}

// encode renders a frame's payload.
func encode(f frame) []byte { return Encode(f) }

// decode parses a payload of frame type ft, which must carry one.
func decode(ft FrameType, p []byte) (frame, error) {
	f := frames[ft]()
	if err := Decode(p, f); err != nil {
		return nil, err
	}
	return f, nil
}

// FuzzFrameDecode feeds arbitrary payloads to the decoder of an
// arbitrary frame type. A decoder may refuse, but must not panic or
// allocate from an unchecked count (a hostile length prefix shows up
// here as an out-of-memory crash), and what it accepts must survive
// Encode → Decode → Encode unchanged.
func FuzzFrameDecode(f *testing.F) {
	for ft := range frames {
		f.Add(byte(ft), encode(seeds[ft])) // a frame type without a seed is a nil dereference here
	}
	// A result header announcing 2^63 aggregates in a 16-byte payload: the
	// input this fuzzer found spinning the ResultHeader decoder until memory ran
	// out.
	f.Add(byte(FrameResultHeader), []byte{0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(byte(FramePing), []byte(nil))
	f.Add(byte(FramePong), []byte(nil))

	f.Fuzz(func(t *testing.T, ft byte, payload []byte) {
		if _, ok := frames[FrameType(ft)]; !ok || len(payload) > MaxPayload {
			return
		}
		first, err := decode(FrameType(ft), payload)
		if err != nil {
			return
		}
		// Every row and cell costs at least one payload byte: the bound the
		// decoders check before allocating from a count.
		switch fr := first.(type) {
		case *RowBatch:
			if len(fr.Rows) > len(payload) {
				t.Fatalf("%d rows decoded from %d bytes", len(fr.Rows), len(payload))
			}
		case *Ingest:
			if len(fr.Cells) > len(payload) {
				t.Fatalf("%d cells decoded from %d bytes", len(fr.Cells), len(payload))
			}
		}
		encoded := encode(first)
		second, err := decode(FrameType(ft), encoded)
		if err != nil {
			t.Fatalf("%s: re-decoding an accepted frame's own encoding: %v", FrameType(ft), err)
		}
		if !reflect.DeepEqual(first, second) || !bytes.Equal(encoded, encode(second)) {
			t.Fatalf("%s: Encode → Decode is not a fixed point:\n first %+v\nsecond %+v", FrameType(ft), first, second)
		}
	})
}
