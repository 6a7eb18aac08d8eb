package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// frame is any payload struct: what a DecodeX returns.
type frame interface{ Encode() []byte }

// as adapts a typed DecodeX to the decoder table, keeping a failed
// decode an untyped nil.
func as[T frame](dec func([]byte) (T, error)) func([]byte) (frame, error) {
	return func(p []byte) (frame, error) {
		f, err := dec(p)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// decoders is every frame type in wire.go that carries a payload (Ping
// and Pong do not), with its decoder.
var decoders = map[FrameType]func([]byte) (frame, error){
	FrameHello:            as(DecodeHello),
	FrameQuery:            as(DecodeQuery),
	FrameExplain:          as(DecodeExplain),
	FrameCancel:           as(DecodeCancel),
	FrameSetOption:        as(DecodeSetOption),
	FrameGetProfiles:      as(DecodeGetProfiles),
	FrameSubQuery:         as(DecodeSubQuery),
	FrameIngest:           as(DecodeIngest),
	FrameDeltaStats:       as(DecodeDeltaStatsReq),
	FrameCompact:          as(DecodeCompactReq),
	FrameHelloAck:         as(DecodeHelloAck),
	FrameResultHeader:     as(DecodeResultHeader),
	FrameRowBatch:         as(DecodeRowBatch),
	FrameResultDone:       as(DecodeResultDone),
	FrameExplainResult:    as(DecodeExplainResult),
	FrameError:            as(DecodeError),
	FrameOptionAck:        as(DecodeOptionAck),
	FrameProfilesResult:   as(DecodeProfilesResult),
	FrameIngestAck:        as(DecodeIngestAck),
	FrameDeltaStatsResult: as(DecodeDeltaStatsResult),
	FrameCompactAck:       as(DecodeCompactAck),
}

// FuzzFrameDecode feeds arbitrary payloads to the decoder of an
// arbitrary frame type. A decoder may refuse, but must not panic or
// allocate from an unchecked count (a hostile length prefix shows up
// here as an out-of-memory crash), and what it accepts must survive
// Encode → Decode → Encode unchanged.
func FuzzFrameDecode(f *testing.F) {
	seeds := map[FrameType]frame{
		FrameHello:        &Hello{Version: Version},
		FrameQuery:        &Query{ID: 1, Engine: Bitmap, SQL: "select sum(volume) from fact", TraceID: "3f9ac2d1-00000017"},
		FrameExplain:      &Explain{ID: 2, Engine: Auto, SQL: "explain analyze select sum(volume) from fact"},
		FrameCancel:       &Cancel{ID: 3},
		FrameSetOption:    &SetOption{ID: 4, Name: "PARALLEL", Value: "4"},
		FrameGetProfiles:  &GetProfiles{ID: 5, QueryID: "3f9ac2d1-00000017", Limit: 10},
		FrameSubQuery:     &SubQuery{ID: 6, Engine: Array, SQL: "select sum(volume) from fact", Shard: 1, Shards: 3, Workers: 2},
		FrameIngest:       &Ingest{ID: 7, Cells: []IngestCell{{Keys: []int64{1, -2, 3}, Value: 55}, {Keys: []int64{0}, Delete: true}}},
		FrameDeltaStats:   &DeltaStatsReq{ID: 8},
		FrameCompact:      &CompactReq{ID: 9},
		FrameHelloAck:     &HelloAck{Version: Version, Server: "repro-olapd/1"},
		FrameResultHeader: &ResultHeader{ID: 1, Plan: "bitmap-factfile", Engine: Bitmap, GroupAttrs: []string{"h01", "h11"}, Aggs: []uint8{0, 1}},
		FrameRowBatch: &RowBatch{ID: 1, Rows: []Row{
			{Groups: []string{"AA0", "AA1"}, Sum: -7, Count: 2, Min: -9, Max: 2}, {Groups: []string{}, Sum: 1 << 40}}},
		FrameResultDone:       &ResultDone{ID: 1, ElapsedNS: 184000, Rows: 2, QueryID: "3f9ac2d1-00000017", Trace: "query 184µs\n", Partial: `[{"shard":0}]`},
		FrameExplainResult:    &ExplainResult{ID: 2, Chosen: "array-consolidate", Engine: Array, Text: "plan\n"},
		FrameError:            &ErrorFrame{ID: 1, Code: CodeUnsupported, Message: "not supported", QueryID: "3f9ac2d1-00000017"},
		FrameOptionAck:        &OptionAck{ID: 4},
		FrameProfilesResult:   &ProfilesResult{ID: 5, JSON: `{"recent":[]}`},
		FrameIngestAck:        &IngestAck{ID: 7, Cells: 2},
		FrameDeltaStatsResult: &DeltaStatsResult{ID: 8, Cells: 2, Bytes: 96, DirtyChunks: 1, TouchedChunks: 1, BudgetBytes: 64 << 20, Compactions: 3},
		FrameCompactAck:       &CompactAck{ID: 9, ElapsedNS: 1500000},
	}
	for ft := range decoders {
		f.Add(byte(ft), seeds[ft].Encode()) // a decoder without a seed is a nil dereference here
	}
	// A result header announcing 2^63 aggregates in a 16-byte payload: the
	// input this fuzzer found spinning DecodeResultHeader until memory ran
	// out.
	f.Add(byte(FrameResultHeader), []byte{0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(byte(FramePing), []byte(nil))
	f.Add(byte(FramePong), []byte(nil))

	f.Fuzz(func(t *testing.T, ft byte, payload []byte) {
		decode, ok := decoders[FrameType(ft)]
		if !ok || len(payload) > MaxPayload {
			return
		}
		first, err := decode(payload)
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
		encoded := first.Encode()
		second, err := decode(encoded)
		if err != nil {
			t.Fatalf("%s: re-decoding an accepted frame's own encoding: %v", FrameType(ft), err)
		}
		if !reflect.DeepEqual(first, second) || !bytes.Equal(encoded, second.Encode()) {
			t.Fatalf("%s: Encode → Decode is not a fixed point:\n first %+v\nsecond %+v", FrameType(ft), first, second)
		}
	})
}
