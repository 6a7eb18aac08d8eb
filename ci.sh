#!/bin/sh
# ci.sh — the checks every PR must pass, in the order they fail fastest.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

# The numbers a CHANGES.md entry quotes for "less code, fewer knobs".
echo "== ledger =="
echo "non-test Go lines outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -n 1 | awk '{print $1}')"
echo "olapd flags: $(grep -cE '= flag\.[A-Z][A-Za-z0-9]*\(' cmd/olapd/main.go)"
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

# Every package, so the differential suites (codec, compaction, shard
# union, cluster, chunk kernel, generation swap) all run under the detector too.
echo "== go test -race (every package) =="
go test -race ./...

echo "== parallel differential suite under -race (GOMAXPROCS=4) =="
GOMAXPROCS=4 go test -race -count=1 -run 'Parallel|ClampWorkers' \
    ./internal/core/... ./internal/exec/... ./internal/bitmap/... ./internal/server/...

echo "== warm arena decode allocates nothing =="
go test -run TestWarmDecodeZeroAlloc -count=1 ./internal/chunk/

echo "== fuzz smoke (store directory, codec decoders, wire frame decoders, 10s each) =="
go test -run='^$' -fuzz=FuzzStoreDir -fuzztime=10s ./internal/chunk/
go test -run='^$' -fuzz=FuzzCodecDecode -fuzztime=10s ./internal/chunk/
go test -run='^$' -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/wire/

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

echo "== overlay fold: µs/query and array cells visited per query, one slab's deltas pending =="
go test -run '^$' -bench BenchmarkOverlayFold -benchtime 1x ./internal/core/ | grep -E '^Benchmark'

echo "== ingest refresh: µs and array cells visited per result-cache miss after a batch, cache on =="
go test -run '^$' -bench BenchmarkIngestRefresh -benchtime 1x ./internal/exec/ | grep -E '^Benchmark'

echo "== arena package under gccheckmark =="
GODEBUG=gccheckmark=1 go test -count=1 ./internal/arena/

echo "== olapd server smoke =="
smokedir=$(mktemp -d)
cleanup_smoke() {
    for pid in ${olapd_pid:-} ${coord_pid:-} ${shard_pids:-}; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$smokedir"
}
trap cleanup_smoke EXIT
go build -o "$smokedir/olapgen" ./cmd/olapgen
go build -o "$smokedir/olapd" ./cmd/olapd
go build -o "$smokedir/olapcli" ./cmd/olapcli
"$smokedir/olapgen" -out "$smokedir/smoke.db" -dims 10x10x10 -density 0.2 >/dev/null

"$smokedir/olapd" -db "$smokedir/smoke.db" -listen 127.0.0.1:0 -obs 127.0.0.1:0 \
    -cache-mb 16 2>"$smokedir/olapd.log" &
olapd_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*msg="olapd serving" addr=\([^ ]*\).*/\1/p' "$smokedir/olapd.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
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

kill -TERM "$olapd_pid"
rc=0
wait "$olapd_pid" || rc=$?
olapd_pid=""
if [ "$rc" -ne 0 ]; then
    echo "olapd shutdown exit code $rc" >&2
    cat "$smokedir/olapd.log" >&2
    exit 1
fi

echo "== olapd cluster smoke (3 shards + coordinator) =="
# Three plain data servers share the smoke database; the coordinator
# scatters each query with a per-shard restriction, so the data servers
# need no shard flags. The merged rows must equal a single shard server
# answering the same query unrestricted.
wait_addr() { # logfile -> addr, or empty after ~10s
    _a=""
    for _ in $(seq 1 100); do
        _a=$(sed -n 's/.*msg="olapd serving" addr=\([^ ]*\).*/\1/p' "$1")
        [ -n "$_a" ] && break
        sleep 0.1
    done
    echo "$_a"
}
shard_pids=""
for i in 0 1 2; do
    "$smokedir/olapd" -db "$smokedir/smoke.db" -listen 127.0.0.1:0 \
        2>"$smokedir/shard$i.log" &
    shard_pids="$shard_pids $!"
done
shard_addrs=""
for i in 0 1 2; do
    a=$(wait_addr "$smokedir/shard$i.log")
    if [ -z "$a" ]; then
        echo "shard $i did not start:" >&2
        cat "$smokedir/shard$i.log" >&2
        exit 1
    fi
    shard_addrs="${shard_addrs:+$shard_addrs,}$a"
done
"$smokedir/olapd" -coordinator -shards "$shard_addrs" -listen 127.0.0.1:0 -obs 127.0.0.1:0 \
    2>"$smokedir/coord.log" &
coord_pid=$!
coord=$(wait_addr "$smokedir/coord.log")
if [ -z "$coord" ]; then
    echo "coordinator did not start:" >&2
    cat "$smokedir/coord.log" >&2
    exit 1
fi

cluster_q="select sum(volume), count(volume), h01 from fact, dim0 group by h01"
"$smokedir/olapcli" -connect "$coord" "$cluster_q" >"$smokedir/cluster.out"
grep -q "plan=scatter-gather\[3\]" "$smokedir/cluster.out"
one_shard=$(echo "$shard_addrs" | cut -d, -f1)
"$smokedir/olapcli" -connect "$one_shard" "$cluster_q" >"$smokedir/single.out"
# Everything but the plan/elapsed header must be byte-identical.
grep -v '^plan=' "$smokedir/cluster.out" >"$smokedir/cluster.rows"
grep -v '^plan=' "$smokedir/single.out" >"$smokedir/single.rows"
if ! diff "$smokedir/cluster.rows" "$smokedir/single.rows"; then
    echo "cluster rows differ from single-node" >&2
    exit 1
fi

# The coordinator is an olapd like any other: a meta-command it has no
# backend for earns one "not supported" line and the session goes on to
# answer the next query; its /metrics carries the server's counters.
printf 'delta\n%s\n\n' "$cluster_q" \
    | "$smokedir/olapcli" -connect "$coord" >"$smokedir/coordrepl.out" 2>"$smokedir/coordrepl.err"
if [ "$(grep -c "not supported" "$smokedir/coordrepl.err")" -ne 1 ]; then
    echo "coordinator REPL: want one 'not supported' line for delta, got:" >&2
    cat "$smokedir/coordrepl.err" >&2
    exit 1
fi
grep -q "plan=scatter-gather\[3\]" "$smokedir/coordrepl.out"
coord_obs=$(sed -n 's/.*msg="observability endpoint" addr=\([^ ]*\).*/\1/p' "$smokedir/coord.log")
curl -sf "http://$coord_obs/metrics" | grep -q "^server_queries_accepted_total"
curl -sf "http://$coord_obs/metrics" | grep -q "^cluster_queries_total"

kill -TERM "$coord_pid"
rc=0
wait "$coord_pid" || rc=$?
coord_pid=""
if [ "$rc" -ne 0 ]; then
    echo "coordinator shutdown exit code $rc" >&2
    cat "$smokedir/coord.log" >&2
    exit 1
fi
for pid in $shard_pids; do
    kill -TERM "$pid"
    rc=0
    wait "$pid" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "shard server (pid $pid) shutdown exit code $rc" >&2
        cat "$smokedir"/shard*.log >&2
        exit 1
    fi
done
shard_pids=""

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
