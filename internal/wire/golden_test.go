package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// golden is the payload of every seed frame in hex, as protocol version 5
// lays it out. A change here is a change to the protocol: it needs a new
// Version, not a new golden value.
var golden = map[FrameType]string{
	FrameHello:            "4f4c41500005",
	FrameQuery:            "00000001031c73656c6563742073756d28766f6c756d65292066726f6d20666163741133663961633264312d3030303030303137",
	FrameExplain:          "00000002002c6578706c61696e20616e616c797a652073656c6563742073756d28766f6c756d65292066726f6d206661637400",
	FrameCancel:           "00000003",
	FrameSetOption:        "0000000408504152414c4c454c0134",
	FrameGetProfiles:      "000000051133663961633264312d30303030303031370a",
	FrameIngest:           "0000000702030203066e0001000001",
	FrameDeltaStats:       "00000008",
	FrameCompact:          "00000009",
	FrameHelloAck:         "00050d726570726f2d6f6c6170642f31",
	FrameResultHeader:     "000000010f6269746d61702d6661637466696c6503020368303103683131020001",
	FrameRowBatch:         "00000001020203414130034141310d04110400808080808040000000",
	FrameResultDone:       "0000000180bb16041133663961633264312d30303030303031370d717565727920313834c2b5730a",
	FrameExplainResult:    "000000021161727261792d636f6e736f6c69646174650105706c616e0a",
	FrameError:            "0000000100070d6e6f7420737570706f727465641133663961633264312d3030303030303137",
	FrameOptionAck:        "00000004",
	FrameProfilesResult:   "000000050d7b22726563656e74223a5b5d7d",
	FrameIngestAck:        "0000000702",
	FrameDeltaStatsResult: "0000000804c00102028080804006",
	FrameCompactAck:       "00000009c08db701",
}

// TestFrameGoldenBytes pins the wire bytes of every payload-carrying
// frame type, plus two layouts the seeds miss: an Ingest cell with no
// keys and negative DeltaStatsResult counters. Each frame must encode to
// its golden payload, and the golden payload must decode to a frame that
// encodes back to it.
func TestFrameGoldenBytes(t *testing.T) {
	type pinned struct {
		ft  FrameType
		f   frame
		hex string
	}
	cases := []pinned{
		{FrameIngest, &Ingest{ID: 10, Cells: []IngestCell{{Keys: []int64{}, Value: -1}, {Keys: nil, Value: 1 << 33, Delete: true}}},
			"0000000a0200010000808080804001"},
		{FrameDeltaStatsResult, &DeltaStatsResult{ID: 11, Cells: -3, Bytes: -1 << 40, Compactions: -1},
			"0000000b05ffffffffff3f00000001"},
	}
	if len(golden) != len(seeds) {
		t.Fatalf("%d golden payloads for %d seed frames", len(golden), len(seeds))
	}
	for ft, h := range golden {
		cases = append(cases, pinned{ft, seeds[ft], h})
	}
	for _, c := range cases {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(c.f); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to %x, want %x", c.ft, got, want)
		}
		back, err := decode(c.ft, want)
		if err != nil {
			t.Errorf("%s: golden payload does not decode: %v", c.ft, err)
			continue
		}
		if got := encode(back); !bytes.Equal(got, want) {
			t.Errorf("%s: golden payload decodes to a frame that encodes to %x", c.ft, got)
		}
	}
}
