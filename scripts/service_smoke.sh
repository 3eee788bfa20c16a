#!/usr/bin/env bash
# Black-box smoke of the query service: boot jsqd, drive it with jsqc
# over a small corpus, and diff every answer against the jsq CLI (the
# direct, no-wire evaluation of the same engine), documents and record
# streams alike.  Also checks the typed error path on a malformed body,
# the stream offset of a stray byte between records, length-framed +
# adversarially chunked uploads, the Prometheus stats scrape, and that
# a SIGTERM drain exits 0.  Run under ASan+UBSan in CI so protocol and
# shutdown paths execute sanitized end to end.
#
# Usage: scripts/service_smoke.sh [build-dir]
set -euo pipefail

BUILD=${1:-build}
JSQD="$BUILD/examples/jsqd"
JSQC="$BUILD/examples/jsqc"
JSQ="$BUILD/examples/jsq"
JSQLOAD="$BUILD/examples/jsqload" # optional: exercised when built

for bin in "$JSQD" "$JSQC" "$JSQ"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
done

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

port=$(( (RANDOM % 20000) + 20000 ))
"$JSQD" -p "$port" --workers 2 --shards 2 >"$tmp/jsqd.out" 2>"$tmp/jsqd.err" &
pid=$!
for _ in $(seq 100); do
    grep -q "listening" "$tmp/jsqd.out" 2>/dev/null && break
    kill -0 "$pid" 2>/dev/null || { cat "$tmp/jsqd.err" >&2; exit 1; }
    sleep 0.1
done
grep -q "listening" "$tmp/jsqd.out"
echo "jsqd up on port $port"

# --- corpus: every (doc, query) answer must match the jsq CLI -------
cat >"$tmp/doc1.json" <<'EOF'
{"products": [{"id": 1, "name": "ski"}, {"id": 2, "name": "jump"}],
 "total": 2}
EOF
cat >"$tmp/doc2.json" <<'EOF'
{"user": {"entities": {"url": {"urls": [{"url": "u1"}, {"url": "u2"}]}}},
 "text": "tweet \"quoted\" text\nsecond line", "retweet_count": 3}
EOF
cat >"$tmp/doc3.json" <<'EOF'
[{"k": [1, 2, 3]}, {"k": []}, {"k": [4.5e2, true, null]}]
EOF

queries1='$.products[*].name $.products[*].id $.total $.missing'
queries2='$.user.entities.url.urls[*].url $.retweet_count $.text'
queries3='$[*].k[*] $[1:3].k'

for n in 1 2 3; do
    doc="$tmp/doc$n.json"
    eval "queries=\$queries$n"
    for q in $queries; do
        "$JSQ" "$q" "$doc" >"$tmp/expected" 2>/dev/null
        "$JSQC" -p "$port" "$q" "$doc" >"$tmp/got"
        diff -u "$tmp/expected" "$tmp/got" || {
            echo "MISMATCH doc$n query $q" >&2; exit 1; }
    done
done
echo "corpus answers match jsq"

# Multi-query counts agree too.
"$JSQ" -c '$.products[*].name,$.total' "$tmp/doc1.json" >"$tmp/expected"
"$JSQC" -p "$port" -c '$.products[*].name,$.total' "$tmp/doc1.json" \
    >"$tmp/got"
diff -u "$tmp/expected" "$tmp/got"
echo "multi-query counts match jsq"

# A 3-query batch answers one combined pass; each per-query count must
# equal the answer of a separate single-query request.
set -- '$.products[*].name' '$.products[*].id' '$.total'
"$JSQC" -p "$port" -c "$1,$2,$3" "$tmp/doc1.json" >"$tmp/batch"
i=0
for q in "$@"; do
    solo=$("$JSQC" -p "$port" -c "$q" "$tmp/doc1.json")
    batch=$(awk -v n="q$i" '$1 == n {print $NF}' "$tmp/batch")
    [ "$solo" = "$batch" ] || {
        echo "batch count mismatch for $q: solo=$solo batch=$batch" >&2
        exit 1; }
    i=$((i + 1))
done
echo "3-query batch per-query counts match solo requests"

# A mixed batch: a plain, a filter and a descendant query walk the body
# together.  Each per-query count must equal a solo request's, and each
# query's values must equal jsq's for the same list.
set -- '$.products[*].name' '$.products[?(@.id>1)].name' '$..id'
"$JSQC" -p "$port" -c "$1,$2,$3" "$tmp/doc1.json" >"$tmp/batch"
"$JSQ" "$1,$2,$3" "$tmp/doc1.json" >"$tmp/expected"
"$JSQC" -p "$port" "$1,$2,$3" "$tmp/doc1.json" >"$tmp/got"
i=0
for q in "$@"; do
    solo=$("$JSQC" -p "$port" -c "$q" "$tmp/doc1.json")
    batch=$(awk -v n="q$i" '$1 == n {print $NF}' "$tmp/batch")
    [ "$solo" = "$batch" ] || {
        echo "mixed batch count mismatch for $q: solo=$solo batch=$batch" >&2
        exit 1; }
    diff -u <(grep -F "[q$i] " "$tmp/expected") \
        <(grep -F "[q$i] " "$tmp/got") || {
        echo "mixed batch values differ from jsq for $q" >&2; exit 1; }
    i=$((i + 1))
done
[ "$(wc -l <"$tmp/got")" -eq 5 ] || {
    echo "mixed batch: expected 5 values, got $(wc -l <"$tmp/got")" >&2
    exit 1; }
echo "mixed batch (plain, filter, descendant) matches solo requests and jsq"

# --- protocol edges -------------------------------------------------
# Length-framed body written 7 bytes at a time.
"$JSQC" -p "$port" --length --chunk 7 '$.total' "$tmp/doc1.json" \
    >"$tmp/got"
[ "$(cat "$tmp/got")" = "2" ]
echo "length-framed chunked upload ok"

# doc= repeat-query document: answers must still match jsq, and the
# trailer's index= verdict must go miss (cold build) then hit (cached
# semi-index) when the same bytes are re-queried.  --shards 2 means the
# two requests can land on different shards with separate cache
# partitions, so accept miss/hit for the second request but require
# its answer to be identical either way.
"$JSQ" '$.products[*].name' "$tmp/doc1.json" >"$tmp/expected"
"$JSQC" -p "$port" -s --doc smoke1 '$.products[*].name' \
    "$tmp/doc1.json" >"$tmp/got" 2>"$tmp/goterr"
diff -u "$tmp/expected" "$tmp/got"
grep -q "index=miss" "$tmp/goterr" || {
    cat "$tmp/goterr" >&2
    echo "first doc= request should be an index miss" >&2; exit 1; }
"$JSQC" -p "$port" -s --doc smoke1 '$.products[*].name' \
    "$tmp/doc1.json" >"$tmp/got" 2>"$tmp/goterr"
diff -u "$tmp/expected" "$tmp/got"
grep -Eq "index=(hit|miss)" "$tmp/goterr" || {
    cat "$tmp/goterr" >&2
    echo "second doc= request lost its index verdict" >&2; exit 1; }
echo "doc= warm path answers match jsq"

# Malformed body: typed error trailer, client exits nonzero.
printf '{"a": [1, 2' >"$tmp/bad.json"
if "$JSQC" -p "$port" '$.a' "$tmp/bad.json" >"$tmp/got" 2>"$tmp/goterr"
then
    echo "malformed body unexpectedly accepted" >&2; exit 1
fi
grep -q "server error:" "$tmp/goterr"
echo "malformed body rejected with a typed trailer"

# Record streams (-r): jsqd and jsq agree on valid NDJSON, and on
# NDJSON with a stray byte past the first 64 KiB both report the stray
# byte's offset in the stream.
awk 'BEGIN { for (i = 0; i < 12000; i++)
    printf "{\"a\": %d, \"b\": [%d]}\n", i, i % 7 }' >"$tmp/rec.ndjson"
for q in '$.b[0]' '$.a,$.b[0]'; do
    "$JSQ" -r "$q" "$tmp/rec.ndjson" >"$tmp/expected"
    "$JSQC" -p "$port" -r "$q" "$tmp/rec.ndjson" >"$tmp/got"
    diff -u "$tmp/expected" "$tmp/got" || {
        echo "MISMATCH -r query $q" >&2; exit 1; }
done
awk 'BEGIN { for (i = 0; i < 12000; i++) { if (i == 6000) printf "x";
    printf "{\"a\": %d, \"b\": [%d]}\n", i, i % 7 } }' >"$tmp/rec_bad.ndjson"
want=$(head -n 6000 "$tmp/rec.ndjson" | wc -c)
if "$JSQ" -r '$.a' "$tmp/rec_bad.ndjson" >/dev/null 2>"$tmp/jsqerr"; then
    echo "jsq accepted a stray byte between records" >&2; exit 1
fi
if "$JSQC" -p "$port" -r '$.a' "$tmp/rec_bad.ndjson" >/dev/null \
    2>"$tmp/goterr"; then
    echo "jsqd accepted a stray byte between records" >&2; exit 1
fi
jsq_at=$(sed -n 's/.*(at byte \([0-9]*\))$/\1/p' "$tmp/jsqerr")
jsqd_at=$(sed -n 's/.* at byte \([0-9]*\)$/\1/p' "$tmp/goterr")
[ "$jsq_at" -eq "$want" ] && [ "$jsqd_at" -eq "$want" ] || {
    cat "$tmp/jsqerr" "$tmp/goterr" >&2
    echo "stray byte at $want: jsq says '$jsq_at', jsqd '$jsqd_at'" >&2
    exit 1; }
echo "record streams match jsq, stray byte at $want in both"

# Bad query: rejected, daemon unharmed.
if "$JSQC" -p "$port" '$.a[' "$tmp/doc1.json" >/dev/null 2>&1; then
    echo "malformed query unexpectedly accepted" >&2; exit 1
fi

# --- stats scrape ---------------------------------------------------
"$JSQC" -p "$port" --stats >"$tmp/stats"
# The daemon must report which runtime SIMD kernel it dispatched to;
# when JSONSKI_KERNEL is set in the smoke environment the scrape must
# agree with it.
kernel=$(sed -n 's/^jsonski_server_kernel_info{kernel="\([^"]*\)"} 1$/\1/p' \
    "$tmp/stats")
[ -n "$kernel" ] || { echo "no kernel_info in stats scrape" >&2; exit 1; }
if [ -n "${JSONSKI_KERNEL:-}" ] && [ "$kernel" != "$JSONSKI_KERNEL" ]; then
    echo "kernel mismatch: stats say $kernel, env wants $JSONSKI_KERNEL" >&2
    exit 1
fi
echo "active kernel: $kernel"
grep -q "jsonski_server_requests_total" "$tmp/stats"
grep -q "jsonski_server_responses_error" "$tmp/stats"
grep -q "jsonski_server_plan_cache_hits" "$tmp/stats"
grep -q "jsonski_server_doc_index_cache_misses" "$tmp/stats"
misses=$(awk '/^jsonski_server_doc_index_cache_misses /{print $2}' "$tmp/stats")
[ "$misses" -ge 1 ] # the doc= leg above built at least one index
errors=$(awk '/^jsonski_server_responses_error /{print $2}' "$tmp/stats")
[ "$errors" -ge 2 ] # the two rejections above are accounted for
# The daemon reports what every ok request fast-forwarded: the five
# per-group series sum the trailers' ff fields, so the query legs above
# must have left them above zero.
groups=$(grep -c '^jsonski_skipped_bytes_total{group="G[1-5]"} ' "$tmp/stats")
[ "$groups" -eq 5 ] || {
    echo "expected 5 skipped-bytes series, got $groups" >&2; exit 1; }
skipped=$(awk '/^jsonski_skipped_bytes_total\{/{s += $2} END {print s + 0}' \
    "$tmp/stats")
[ "$skipped" -gt 0 ] || {
    echo "no fast-forwarded bytes in the stats scrape" >&2; exit 1; }
echo "stats scrape ok (responses_error=$errors, skipped bytes=$skipped)"

# --- per-shard series -----------------------------------------------
# Two shards were requested; the scrape must say so and expose one
# labelled requests series per shard that sums to the merged total.
shards=$(awk '/^jsonski_server_shards /{print $2}' "$tmp/stats")
[ "$shards" = "2" ] || { echo "expected 2 shards, got '$shards'" >&2; exit 1; }
total=$(awk '/^jsonski_server_requests_total /{print $2}' "$tmp/stats")
s0=$(sed -n 's/^jsonski_server_shard_requests_total{shard="0"} //p' "$tmp/stats")
s1=$(sed -n 's/^jsonski_server_shard_requests_total{shard="1"} //p' "$tmp/stats")
[ -n "$s0" ] && [ -n "$s1" ] || {
    echo "missing per-shard requests series" >&2; exit 1; }
[ "$((s0 + s1))" -eq "$total" ] || {
    echo "shard requests $s0 + $s1 != total $total" >&2; exit 1; }
echo "per-shard scrape ok (shard0=$s0 shard1=$s1 total=$total)"

# --- load generator (when built) ------------------------------------
# A short open-loop burst across both shards: every request must
# succeed, which exercises the accept path, deadline plumbing, and
# the per-shard counters under real concurrency.
if [ -x "$JSQLOAD" ]; then
    "$JSQLOAD" -p "$port" -q '$.a[*]' --qps 200 --duration-ms 500 \
        --connections 4 >"$tmp/load.out"
    grep -q ", 0 errors;" "$tmp/load.out" || {
        cat "$tmp/load.out" >&2
        echo "jsqload reported errors" >&2; exit 1; }
    echo "jsqload open-loop burst ok"
fi

# --- graceful SIGTERM drain ----------------------------------------
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || { echo "drain exited $rc" >&2; exit 1; }
grep -q "drained:" "$tmp/jsqd.err"
echo "SIGTERM drain exited 0"
echo "service smoke: PASS"
