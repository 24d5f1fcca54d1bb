#!/usr/bin/env bash
# Span-relational query smoke test: train + install a wrapper, install a
# two-source join query (wrapper ⋈ inline expression with a `before`
# predicate), evaluate it over HTTP under both join strategies and assert
# the records are byte-identical, then run the same query offline through
# `rextract query` and check the byte-offset provenance lines. A query
# whose inline expression does not parse must be refused at install (and
# not persisted) and at `rextract query` load. Uses bash's /dev/tcp so it
# needs no curl.
# Usage: scripts/query_smoke.sh [path-to-rextract-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/rextract}"
[ -x "$BIN" ] || { echo "error: $BIN not built (run cargo build --release)"; exit 1; }

WORK="$(mktemp -d)"
OUT="$WORK/serve.log"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Minimal HTTP client over /dev/tcp: http <METHOD> <PATH> [BODY-FILE].
# Prints status line + body (headers stripped).
http() {
    local method="$1" path="$2" body="" len=0
    if [ $# -ge 3 ]; then body="$(cat "$3")"; len=${#body}; fi
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf '%s %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s' \
        "$method" "$path" "$len" "$body" >&3
    tr -d '\r' <&3 | awk 'NR==1{print} body{print} /^$/{body=1}'
    exec 3<&- 3>&-
}

echo "== query smoke: boot =="
"$BIN" serve --addr 127.0.0.1:0 --workers 2 --wrapper-dir "$WORK" >"$OUT" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    grep -q 'listening on' "$OUT" 2>/dev/null && break
    sleep 0.1
done
PORT="$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$OUT" | head -1)"
[ -n "$PORT" ] && kill -0 "$SRV_PID" || { echo "daemon failed to boot"; cat "$OUT"; exit 1; }
echo "daemon up on port $PORT"

echo "== query smoke: train + install the wrapper source =="
cat >"$WORK/sample1.html" <<'HTML'
<p><h1>Shop</h1></p><form><input><input data-target><br><input></form>
HTML
cat >"$WORK/sample2.html" <<'HTML'
<table><tr><td><h1>Shop</h1></td></tr><tr><td><form><input><input data-target><input></form></td></tr></table>
HTML
"$BIN" wrapper-train "$WORK/smoke.wrapper" "$WORK/sample1.html" "$WORK/sample2.html"
http POST /wrappers/smoke "$WORK/smoke.wrapper" | tee "$WORK/install.txt"
grep -q '201 Created' "$WORK/install.txt"

echo "== query smoke: install a two-source join query =="
cat >"$WORK/pair.json" <<'JSON'
{
  "sources": [
    {"var": "field", "wrapper": "smoke"},
    {"var": "form", "alphabet": "FORM /FORM", "expr": "[^FORM]* <FORM> .*"}
  ],
  "plan": {
    "op": "join",
    "left": {"op": "leaf", "var": "form"},
    "right": {"op": "leaf", "var": "field"},
    "preds": [{"pred": "before", "left": "form", "right": "field"}]
  }
}
JSON
http POST /queries/pair "$WORK/pair.json" | tee "$WORK/qinstall.txt"
grep -q '201 Created' "$WORK/qinstall.txt"
grep -q '"sources":2' "$WORK/qinstall.txt"
http GET /queries | grep -q '"pair"'

echo "== query smoke: evaluate under both join strategies =="
cat >"$WORK/page.html" <<'HTML'
<p><h1>Shop</h1></p><center><form><input><input><br><input></form></center>
HTML
http POST '/query?query=pair' "$WORK/page.html" | tee "$WORK/merge.txt"
grep -q '200 OK' "$WORK/merge.txt"
grep -q '"strategy":"sort-merge"' "$WORK/merge.txt"
grep -q '"form":{' "$WORK/merge.txt"
grep -q '"field":{' "$WORK/merge.txt"
grep -q '<form' "$WORK/merge.txt"
ROWS="$(sed -n 's|.*"rows":\([0-9]*\).*|\1|p' "$WORK/merge.txt" | head -1)"
[ -n "$ROWS" ] && [ "$ROWS" -ge 1 ] || { echo "join produced no rows"; cat "$WORK/merge.txt"; exit 1; }
http POST '/query?query=pair&strategy=nested-loop' "$WORK/page.html" >"$WORK/nested.txt"
grep -q '200 OK' "$WORK/nested.txt"
# The records array (everything before the timing field) must be
# byte-identical across strategies — canonical form is the contract.
records() { sed -n 's|.*"records":\(.*\),"tokens".*|\1|p' "$1"; }
[ -n "$(records "$WORK/merge.txt")" ] || { echo "no records array in response"; exit 1; }
if [ "$(records "$WORK/merge.txt")" != "$(records "$WORK/nested.txt")" ]; then
    echo "strategies disagree:"; records "$WORK/merge.txt"; records "$WORK/nested.txt"; exit 1
fi
echo "sort-merge and nested-loop returned byte-identical records ($ROWS rows)"

echo "== query smoke: per-query metrics =="
http GET /metrics | tee "$WORK/metrics.txt" | grep -q '"pair":{"evaluations":2'

echo "== query smoke: offline rextract query =="
"$BIN" query --wrappers "$WORK" "$WORK/pair.json" "$WORK/page.html" >"$WORK/cli.out" 2>"$WORK/cli.err"
grep -q '"query":"pair"' "$WORK/cli.out"
grep -q '"vars":\["form","field"\]' "$WORK/cli.out"
grep -q '"byte_offsets":' "$WORK/cli.out"
grep -q '<form' "$WORK/cli.out"
"$BIN" query --wrappers "$WORK" --strategy nested-loop "$WORK/pair.json" "$WORK/page.html" >"$WORK/cli2.out" 2>/dev/null
cmp "$WORK/cli.out" "$WORK/cli2.out" || { echo "CLI strategies disagree"; exit 1; }
echo "offline query output byte-identical across strategies"

echo "== query smoke: a bad inline expression is refused =="
cat >"$WORK/bad.json" <<'JSON'
{"sources": [{"var": "cell", "alphabet": "TD", "expr": "((( <TD> .*"}],
 "plan": {"op": "leaf", "var": "cell"}}
JSON
http POST /queries/bad "$WORK/bad.json" | tee "$WORK/qbad.txt"
grep -q '400 Bad Request' "$WORK/qbad.txt"
grep -q 'source \\"cell\\": bad expression' "$WORK/qbad.txt"
# The accepted query sits in the same directory the refused one must not.
[ -e "$WORK/pair.query" ] || { echo "pair.query was not persisted"; exit 1; }
[ ! -e "$WORK/bad.query" ] || { echo "a refused query was persisted"; exit 1; }
if "$BIN" query "$WORK/bad.json" "$WORK/page.html" >"$WORK/bad.out" 2>"$WORK/bad.err"; then
    echo "rextract query accepted a bad inline expression"; exit 1
fi
[ ! -s "$WORK/bad.out" ] || { echo "rextract query wrote output for a bad query"; exit 1; }
grep -q 'source "cell": bad expression' "$WORK/bad.err"
echo "bad inline expression refused at install and at load"

echo "== query smoke: graceful shutdown =="
http POST /shutdown | grep -q '"draining":true'
for _ in $(seq 1 50); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SRV_PID" 2>/dev/null; then
    echo "daemon did not exit after /shutdown"; exit 1
fi
wait "$SRV_PID"

echo "query smoke passed."
