#!/usr/bin/env bash
# Daemon smoke test: boot `rextract serve` on an ephemeral port, check
# /healthz, train + install a wrapper, run one extraction over HTTP,
# check that POST /pipeline and `rextract pipeline` emit the same bytes,
# and shut down gracefully. Uses bash's /dev/tcp so it needs no curl.
# Usage: scripts/serve_smoke.sh [path-to-rextract-binary]
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

echo "== serve smoke: boot =="
"$BIN" serve --addr 127.0.0.1:0 --workers 2 --wrapper-dir "$WORK" >"$OUT" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    grep -q 'listening on' "$OUT" 2>/dev/null && break
    sleep 0.1
done
PORT="$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$OUT" | head -1)"
[ -n "$PORT" ] && kill -0 "$SRV_PID" || { echo "daemon failed to boot"; cat "$OUT"; exit 1; }
echo "daemon up on port $PORT"

echo "== serve smoke: /healthz =="
http GET /healthz | tee "$WORK/health.txt"
grep -q '200 OK' "$WORK/health.txt"
grep -q '"status":"ok"' "$WORK/health.txt"

echo "== serve smoke: train + install a wrapper =="
cat >"$WORK/sample1.html" <<'HTML'
<p><h1>Shop</h1></p><form><input><input data-target><br><input></form>
HTML
cat >"$WORK/sample2.html" <<'HTML'
<table><tr><td><h1>Shop</h1></td></tr><tr><td><form><input><input data-target><input></form></td></tr></table>
HTML
"$BIN" wrapper-train "$WORK/smoke.wrapper" "$WORK/sample1.html" "$WORK/sample2.html"
http POST /wrappers/smoke "$WORK/smoke.wrapper" | tee "$WORK/install.txt"
grep -q '201 Created' "$WORK/install.txt"

echo "== serve smoke: one extraction =="
cat >"$WORK/page.html" <<'HTML'
<p><h1>Shop</h1></p><center><form><input><input><br><input></form></center>
HTML
http POST '/extract?wrapper=smoke' "$WORK/page.html" | tee "$WORK/extract.txt"
grep -q '200 OK' "$WORK/extract.txt"
grep -q '"position":' "$WORK/extract.txt"

echo "== serve smoke: POST /pipeline and rextract pipeline agree byte for byte =="
cat >"$WORK/table.html" <<'HTML'
<table><tr><td><h1>Shop</h1></td></tr><tr><td><form><input><input><input></form></td></tr></table>
HTML
echo '<blink>nothing here</blink>' >"$WORK/unroutable.html"
printf '%s\n' "$WORK/page.html" "$WORK/table.html" "$WORK/unroutable.html" >"$WORK/manifest.txt"
"$BIN" pipeline --wrappers "$WORK" --manifest "$WORK/manifest.txt" >"$WORK/cli.ndjson"
http POST /pipeline "$WORK/manifest.txt" >"$WORK/daemon.txt"
grep -q '200 OK' "$WORK/daemon.txt"
tail -n +2 "$WORK/daemon.txt" >"$WORK/daemon.ndjson"
grep -q '"error":"unrouted"' "$WORK/cli.ndjson"
cmp "$WORK/cli.ndjson" "$WORK/daemon.ndjson" \
    || { echo "surfaces disagree"; diff "$WORK/cli.ndjson" "$WORK/daemon.ndjson"; exit 1; }
echo "$(wc -l <"$WORK/cli.ndjson") identical lines"

echo "== serve smoke: pipelined pair (two requests, one write) =="
# Stage both requests in a file and `cat` it to the socket: bash's
# printf can split its output across several write(2) calls, which
# would de-pipeline the pair into separate segments.
printf 'GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\nGET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' \
    >"$WORK/pipeline.req"
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
cat "$WORK/pipeline.req" >&3
tr -d '\r' <&3 >"$WORK/pipeline.txt"
exec 3<&- 3>&-
OKS="$(grep -o 'HTTP/1.1 200 OK' "$WORK/pipeline.txt" | wc -l)"
[ "$OKS" -eq 2 ] || { echo "expected 2 pipelined responses, got $OKS"; cat "$WORK/pipeline.txt"; exit 1; }
# The first response must be the healthz body, the second the metrics
# body — in-order responses are the pipelining contract.
awk '/"status"/{h=NR} /"pipelined_requests"/{m=NR} END{exit !(h && m && h<m)}' "$WORK/pipeline.txt" \
    || { echo "pipelined responses out of order"; cat "$WORK/pipeline.txt"; exit 1; }
PIPELINED="$(sed -n 's|.*"pipelined_requests":\([0-9]*\).*|\1|p' "$WORK/pipeline.txt" | head -1)"
[ -n "$PIPELINED" ] && [ "$PIPELINED" -ge 1 ] \
    || { echo "daemon did not count the pipelined pair"; cat "$WORK/pipeline.txt"; exit 1; }
echo "both pipelined responses arrived in order ($PIPELINED pipelined requests counted)"

echo "== serve smoke: graceful shutdown =="
http POST /shutdown | grep -q '"draining":true'
for _ in $(seq 1 50); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SRV_PID" 2>/dev/null; then
    echo "daemon did not exit after /shutdown"; exit 1
fi
wait "$SRV_PID"
grep -q 'drained; bye' "$OUT"

echo "serve smoke passed."
