#!/bin/sh
# ci.sh — the checks every PR must pass, in the order they fail fastest.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

# The numbers a CHANGES.md entry quotes for "less code, fewer knobs".
echo "== ledger =="
echo "non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -n 1 | awk '{print $1}')"
echo "test Go lines outside benchmark/: $(find . -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -n 1 | awk '{print $1}')"
for cmd in olapd olapcli olapbench; do
    echo "$cmd flags: $(grep -cE '= flag\.[A-Z][A-Za-z0-9]*\(' "cmd/$cmd/main.go")"
done
echo "repro.Options fields: $(sed -n '/^type Options struct {/,/^}/p' olap.go | grep -cE '^	[A-Z][A-Za-z]* +[a-z\[]')"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

# The benchmark is a module of its own and a client of the root API: a
# root-API removal it depended on fails here, not in the driver.
echo "== benchmark module builds and tests =="
(cd benchmark && go build ./... && go test ./...)

echo "== EXPLAIN ANALYZE golden output =="
go test -run TestExplainAnalyzeGolden -count=1 ./internal/exec/

echo "== metrics endpoint smoke =="
go test -run TestMetricsEndpoint -count=1 .

# Every package, so the differential suites (codec, compaction, overlay,
# chunk kernel, generation swap) all run under the detector too.
echo "== go test -race (every package) =="
go test -race ./...

# A query's base and overlay come from one delta-store snapshot. When they
# did not, the writer test failed about 1 run in 100 under -race, so one
# run proves nothing; 50 runs take about 40 s on 2 vCPUs.
echo "== one-snapshot stress under -race (50 runs) =="
go test -race -count=50 -run 'TestGenerationSwap/readers_and_a_writer|TestOldGenerationSeesCompactedCells' ./internal/exec/
go test -race -count=50 -run 'TestViewsSelfConsistent' ./internal/delta/

echo "== parallel differential suite under -race (GOMAXPROCS=4) =="
GOMAXPROCS=4 go test -race -count=1 -run 'Parallel|ClampWorkers' \
    ./internal/core/... ./internal/exec/... ./internal/server/...

echo "== warm arena decode allocates nothing =="
go test -run TestWarmDecodeZeroAlloc -count=1 ./internal/chunk/

echo "== warm ArrayGet on a chunk-offset array allocates nothing =="
go test -run TestWarmArrayGetZeroAlloc -count=1 .

echo "== warm Query 1 allocates at most 50 KB (chunks folded where they sit) =="
go test -run TestWarmArrayScanAllocBytes -count=1 ./internal/core/

echo "== warm Query 2/3 allocates at most 50 KB (chunks seeked or filtered where they sit) =="
go test -run TestWarmArraySelectAllocBytes -count=1 ./internal/core/

echo "== fuzz smoke (store directory, codec decoders, in-place pair walk and seek, compaction vs merge-on-read, blob extents, B-tree node pages, bitmap run decoder, wire frame decoders, SQL front door, log record scan, delta batch decoder, 10s each) =="
go test -run='^$' -fuzz=FuzzStoreDir -fuzztime=10s ./internal/chunk/
go test -run='^$' -fuzz=FuzzCodecDecode -fuzztime=10s ./internal/chunk/
go test -run='^$' -fuzz=FuzzOffsetPairWalk -fuzztime=10s ./internal/chunk/
go test -run='^$' -fuzz=FuzzStoreUpdate -fuzztime=10s ./internal/chunk/
go test -run='^$' -fuzz=FuzzBlobExtent -fuzztime=10s ./internal/storage/
go test -run='^$' -fuzz=FuzzBTreeNode -fuzztime=10s ./internal/btree/
go test -run='^$' -fuzz=FuzzBitmapDecode -fuzztime=10s ./internal/bitmap/
go test -run='^$' -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/wire/
go test -run='^$' -fuzz=FuzzParseAndCompile -fuzztime=10s ./internal/query/
go test -run='^$' -fuzz=FuzzRecordScan -fuzztime=10s ./internal/wal/
go test -run='^$' -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/delta/

echo "== warm StarJoin/bitmap allocations bounded and flat =="
go test -run TestWarmStarJoinBoundedAllocs -count=1 ./internal/core/

echo "== warm array scan allocates no more than before the chunk kernel =="
go test -run TestWarmArrayScanBoundedAllocs -count=1 ./internal/core/

echo "== a decoded row batch costs a fixed handful of allocations =="
go test -run TestRowBatchDecodeAllocs -count=1 ./internal/wire/

echo "== a served cache hit allocates a fixed number of objects, none per row =="
go test -run TestServedHitAllocs -count=1 ./internal/server/

echo "== served cache hit: µs/hit (1 row) and ns/row (10 000 rows) =="
go test -run '^$' -bench BenchmarkServedHit -benchtime 2000x ./internal/server/ | grep -E '^Benchmark'

echo "== wire codec: ns/op and allocs/op for a row batch, a frame read and a query's other frames =="
go test -run '^$' -bench 'BenchmarkDecodeRowBatch|BenchmarkReadFrameBuffer|BenchmarkFrameCodec' -benchtime 20000x ./internal/wire/ | grep -E '^Benchmark'

# 20x, not 1x: a 1x run reports only the first walk, which checks and
# stamps every page; the runs after it are the warm ones.
echo "== warm Query 1: ns/cell and B/query, narrow and wide cube; warm point read: ns/op =="
go test -run '^$' -bench BenchmarkArrayScanKernel -benchtime 20x ./internal/core/ | grep -E '^Benchmark'
go test -run '^$' -bench BenchmarkStoreGet -benchtime 20000x ./internal/chunk/ | grep -E '^Benchmark'

echo "== overlay fold: µs/query and array cells visited per query, one slab's deltas pending =="
go test -run '^$' -bench BenchmarkOverlayFold -benchtime 1x ./internal/core/ | grep -E '^Benchmark'

echo "== ingest refresh: µs and array cells visited per result-cache miss after a batch, cache on =="
go test -run '^$' -bench BenchmarkIngestRefresh -benchtime 1x ./internal/exec/ | grep -E '^Benchmark'

echo "== arena package under gccheckmark =="
GODEBUG=gccheckmark=1 go test -count=1 ./internal/arena/

echo "== olapd server smoke =="
smokedir=$(mktemp -d)
cleanup_smoke() {
    if [ -n "${olapd_pid:-}" ]; then
        kill "$olapd_pid" 2>/dev/null || true
    fi
    rm -rf "$smokedir"
}
trap cleanup_smoke EXIT
go build -o "$smokedir/olapgen" ./cmd/olapgen
go build -o "$smokedir/olapd" ./cmd/olapd
go build -o "$smokedir/olapcli" ./cmd/olapcli
"$smokedir/olapgen" -out "$smokedir/smoke.db" -dims 10x10x10 -density 0.2 >/dev/null

wait_addr() { # logfile -> addr, or empty after ~10s
    _a=""
    for _ in $(seq 1 100); do
        _a=$(sed -n 's/.*msg="olapd serving" addr=\([^ ]*\).*/\1/p' "$1")
        [ -n "$_a" ] && break
        sleep 0.1
    done
    echo "$_a"
}

"$smokedir/olapd" -db "$smokedir/smoke.db" -listen 127.0.0.1:0 -obs 127.0.0.1:0 \
    -cache-mb 16 2>"$smokedir/olapd.log" &
olapd_pid=$!
addr=$(wait_addr "$smokedir/olapd.log")
if [ -z "$addr" ]; then
    echo "olapd did not start:" >&2
    cat "$smokedir/olapd.log" >&2
    exit 1
fi
obs=$(sed -n 's/.*msg="observability endpoint" addr=\([^ ]*\).*/\1/p' "$smokedir/olapd.log")

"$smokedir/olapcli" -connect "$addr" \
    "select sum(volume), h01 from fact, dim0 group by h01" | grep -q "plan="
# Same query again: the second run must be served by the result cache.
"$smokedir/olapcli" -connect "$addr" \
    "select sum(volume), h01 from fact, dim0 group by h01" | grep -q "plan="
curl -sf "http://$obs/healthz" >/dev/null
curl -sf "http://$obs/metrics" | grep -q "^server_queries_accepted_total 2"
hits=$(curl -sf "http://$obs/metrics" | sed -n 's/^cache_result_hits_total //p')
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
    echo "query cache did not hit on the repeated query (hits=${hits:-absent})" >&2
    exit 1
fi
# The hit was written from the entry's frame image, in one flush.
image=$(curl -sf "http://$obs/metrics" | sed -n 's/^cache_result_image_bytes //p')
if [ -z "$image" ] || [ "$image" = 0 ]; then
    echo "the cached result holds no frame image (cache_result_image_bytes=${image:-absent})" >&2
    exit 1
fi
curl -sf "http://$obs/metrics" | grep -q "^server_response_flushes_total [1-9]"

# TRACE on: the query ID printed by the client must appear verbatim in
# the flight recorder behind /debug/queries, and the result must carry
# a span tree.
traced=$("$smokedir/olapcli" -connect "$addr" -trace \
    "select sum(volume), h02 from fact, dim0 group by h02")
qid=$(echo "$traced" | sed -n 's/.*query_id=\([0-9a-f-]*\).*/\1/p' | head -n 1)
if [ -z "$qid" ]; then
    echo "traced query printed no query_id:" >&2
    echo "$traced" >&2
    exit 1
fi
echo "$traced" | grep -q "admission-wait"
curl -sf "http://$obs/debug/queries?id=$qid" | grep -q "\"query_id\": \"$qid\""
curl -sf "http://$obs/debug/queries" | grep -q "$qid"
curl -sf "http://$obs/debug/pprof/cmdline" >/dev/null

# A meta-command the server has no request for (stats reads an embedded
# database) earns one "not supported" line, and the session goes on to
# answer the next query.
printf 'stats\nselect sum(volume), h01 from fact, dim0 group by h01\n\n' \
    | "$smokedir/olapcli" -connect "$addr" >"$smokedir/repl.out" 2>"$smokedir/repl.err"
if [ "$(grep -c "not supported" "$smokedir/repl.err")" -ne 1 ]; then
    echo "REPL: want one 'not supported' line for stats, got:" >&2
    cat "$smokedir/repl.err" >&2
    exit 1
fi
grep -q "plan=" "$smokedir/repl.out"
grep -q "^A0 | " "$smokedir/repl.out"

kill -TERM "$olapd_pid"
rc=0
wait "$olapd_pid" || rc=$?
olapd_pid=""
if [ "$rc" -ne 0 ]; then
    echo "olapd shutdown exit code $rc" >&2
    cat "$smokedir/olapd.log" >&2
    exit 1
fi

echo "== HTAP smoke (concurrent ingest+query under -race, 5s) =="
# Writers ingest through the delta store while readers query and the
# background compactor folds underneath; afterwards every engine must
# answer exactly like a sequential replay of the final cell states.
HTAP_SMOKE_SECONDS=5 go test -race -count=1 -run TestHTAPSmoke .

echo "== HTAP olapd smoke (delta flags + REPL meta-commands) =="
"$smokedir/olapd" -db "$smokedir/smoke.db" -listen 127.0.0.1:0 -obs 127.0.0.1:0 \
    -compact-interval 250ms -delta-max-mb 16 2>"$smokedir/htapd.log" &
olapd_pid=$!
addr=$(wait_addr "$smokedir/htapd.log")
if [ -z "$addr" ]; then
    echo "HTAP olapd did not start:" >&2
    cat "$smokedir/htapd.log" >&2
    exit 1
fi
obs=$(sed -n 's/.*msg="observability endpoint" addr=\([^ ]*\).*/\1/p' "$smokedir/htapd.log")

# Drive the REPL: a query, then the insert, delta, and compact
# meta-commands, all of which must answer over the wire.
printf 'select sum(volume), h01 from fact, dim0 group by h01\ninsert 1,2,3=55\ndelta\ncompact\ndelta\n\n' \
    | "$smokedir/olapcli" -connect "$addr" >"$smokedir/htap.out"
grep -q "plan=" "$smokedir/htap.out"
grep -q "ingested 1 cells" "$smokedir/htap.out"
grep -q "delta: cells=" "$smokedir/htap.out"
grep -q "compacted in" "$smokedir/htap.out"

# The delta metrics must be exported.
curl -sf "http://$obs/metrics" | grep -q "^delta_cells "
curl -sf "http://$obs/metrics" | grep -q "^delta_bytes "
curl -sf "http://$obs/metrics" | grep -q "^compactions_total "

kill -TERM "$olapd_pid"
rc=0
wait "$olapd_pid" || rc=$?
olapd_pid=""
if [ "$rc" -ne 0 ]; then
    echo "HTAP olapd shutdown exit code $rc" >&2
    cat "$smokedir/htapd.log" >&2
    exit 1
fi

echo "ci.sh: all checks passed"
