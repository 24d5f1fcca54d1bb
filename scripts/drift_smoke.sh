#!/usr/bin/env bash
# Drift smoke test: boot the real binary with drift detection tightened
# and a mid-repair panic armed, serve good traffic, then hit it with a
# site redesign (the <h1> header replaced by an <img> banner) until the
# wrapper drifts. Asserts the full loop on /metrics: detection (flagged,
# healthz degraded) → repair (first attempt dies on the armed panic,
# retry succeeds) → recovery (the redesigned pages now extract, good
# pages still do, healthz back to ok).
# Uses bash's /dev/tcp so it needs no curl.
# Usage: scripts/drift_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
trap '' PIPE

echo "== drift smoke: build with failpoints =="
cargo build --release -p rextract-cli --features failpoints
BIN="target/release/rextract"

WORK="$(mktemp -d)"
OUT="$WORK/serve.log"
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Minimal HTTP client over /dev/tcp: http <METHOD> <PATH> [BODY-FILE].
http() {
    local method="$1" path="$2" body="" len=0
    if [ $# -ge 3 ]; then body="$(cat "$3")"; len=${#body}; fi
    if ! exec 3<>"/dev/tcp/127.0.0.1/$PORT"; then return 0; fi
    printf '%s %s HTTP/1.1\r\nHost: drift\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s' \
        "$method" "$path" "$len" "$body" >&3 2>/dev/null || true
    tr -d '\r' <&3 2>/dev/null | awk 'NR==1{print} body{print} /^$/{body=1}' || true
    exec 3<&- 3>&- 2>/dev/null || true
}

# Pull an integer counter out of a saved /metrics body.
metric() { sed -n "s|.*\"$1\":\([0-9]*\).*|\1|p" "$2" | head -1; }

echo "== drift smoke: train the original wrapper =="
cat >"$WORK/s1.html" <<'HTML'
<p><h1>Shop</h1></p><form><input><input data-target><br><input></form>
HTML
cat >"$WORK/s2.html" <<'HTML'
<table><tr><td><h1>Shop</h1></td></tr><tr><td><form><input><input data-target><input></form></td></tr></table>
HTML
"$BIN" wrapper-train "$WORK/drift.wrapper" "$WORK/s1.html" "$WORK/s2.html"

# Good traffic: the trained layouts without the training annotation.
cat >"$WORK/good1.html" <<'HTML'
<p><h1>Shop</h1></p><form><input><input><br><input></form>
HTML
cat >"$WORK/good2.html" <<'HTML'
<table><tr><td><h1>Shop</h1></td></tr><tr><td><form><input><input><input></form></td></tr></table>
HTML

# The redesign: the <h1> header the wrapper anchors on is gone, replaced
# by an <img> banner. Four variants; every one must fail the old wrapper
# (pre-checked below) so the daemon's drift window fills deterministically.
for i in 1 2 3 4; do
    cat >"$WORK/drift$i.html" <<HTML
<div><img src="logo$i.gif"></div><form><input><input><br><input></form>
HTML
    if "$BIN" wrapper-extract "$WORK/drift.wrapper" "$WORK/drift$i.html" >/dev/null 2>&1; then
        echo "drift$i.html unexpectedly extracts with the old wrapper"; exit 1
    fi
done

echo "== drift smoke: boot with drift detection and a mid-repair panic armed =="
mkdir "$WORK/registry"
"$BIN" serve --addr 127.0.0.1:0 --workers 2 --wrapper-dir "$WORK/registry" \
    --drift-window 8 --drift-threshold 0.5 \
    --fault 'serve.repair.train=once:panic' >"$OUT" 2>&1 &
SRV_PID=$!
for _ in $(seq 1 50); do
    grep -q 'listening on' "$OUT" 2>/dev/null && break
    sleep 0.1
done
PORT="$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$OUT" | head -1)"
[ -n "$PORT" ] && kill -0 "$SRV_PID" || { echo "daemon failed to boot"; cat "$OUT"; exit 1; }
echo "daemon up on port $PORT"

http POST /wrappers/drift "$WORK/drift.wrapper" | grep -q '201 Created' \
    || { echo "wrapper install failed"; cat "$OUT"; exit 1; }

echo "== drift smoke: good traffic, then the redesign =="
for i in 1 2 3 4; do
    PAGE="$WORK/good$(( (i + 1) % 2 + 1 )).html"
    http POST '/extract?wrapper=drift' "$PAGE" | grep -q '200 OK' \
        || { echo "good page $i did not extract"; cat "$OUT"; exit 1; }
done
for i in 1 2 3 4; do
    http POST '/extract?wrapper=drift' "$WORK/drift$i.html" | grep -q '422' \
        || { echo "drifted page $i should have failed extraction"; cat "$OUT"; exit 1; }
done

echo "== drift smoke: detection =="
http GET /metrics >"$WORK/m1.txt"
[ "$(metric flagged "$WORK/m1.txt")" = "1" ] \
    || { echo "drift was not flagged"; cat "$WORK/m1.txt"; exit 1; }
http GET /healthz | grep -q '"status":"degraded"' \
    || { echo "healthz should be degraded while drifted"; exit 1; }
echo "drift flagged; wrapper degraded"

echo "== drift smoke: repair (first attempt panics, retry heals) =="
HEALED=0
for _ in $(seq 1 150); do
    http GET /metrics >"$WORK/m2.txt"
    if [ "$(metric repairs_succeeded "$WORK/m2.txt")" = "1" ]; then HEALED=1; break; fi
    sleep 0.1
done
[ "$HEALED" -eq 1 ] || { echo "repair never succeeded"; cat "$WORK/m2.txt"; cat "$OUT"; exit 1; }
ATTEMPTED="$(metric repairs_attempted "$WORK/m2.txt")"
FAILED="$(metric repairs_failed "$WORK/m2.txt")"
echo "repair attempts: $ATTEMPTED (failed $FAILED, succeeded 1)"
# The armed panic must have burned at least the first attempt, and the
# ledger must reconcile exactly: every attempt either failed or healed.
[ "$ATTEMPTED" -ge 2 ] || { echo "expected >=2 attempts (panic + retry)"; cat "$WORK/m2.txt"; exit 1; }
[ "$FAILED" -ge 1 ] || { echo "expected >=1 failed attempt from the panic"; cat "$WORK/m2.txt"; exit 1; }
[ "$ATTEMPTED" -eq $((FAILED + 1)) ] \
    || { echo "attempt ledger does not reconcile"; cat "$WORK/m2.txt"; exit 1; }

echo "== drift smoke: recovered accuracy =="
# The healed wrapper serves the redesigned pages (bumped revision) and
# still serves the original layouts.
http POST '/extract?wrapper=drift' "$WORK/drift1.html" >"$WORK/healed.txt"
grep -q '200 OK' "$WORK/healed.txt" || { echo "healed wrapper rejects redesigned page"; cat "$WORK/healed.txt"; exit 1; }
grep -q '"wrapper_revision":2' "$WORK/healed.txt" \
    || { echo "expected revision 2 after repair"; cat "$WORK/healed.txt"; exit 1; }
http POST '/extract?wrapper=drift' "$WORK/good1.html" | grep -q '200 OK' \
    || { echo "healed wrapper regressed on good pages"; cat "$OUT"; exit 1; }
http GET /healthz | grep -q '"status":"ok"' \
    || { echo "healthz should be ok after repair"; exit 1; }
echo "redesigned pages extract at revision 2; good pages unaffected"

echo "== drift smoke: graceful shutdown =="
http POST /shutdown | grep -q '"draining":true'
for _ in $(seq 1 50); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.1
done
kill -0 "$SRV_PID" 2>/dev/null && { echo "daemon did not exit after /shutdown"; exit 1; }
wait "$SRV_PID"
grep -q 'drained; bye' "$OUT"

echo "drift smoke passed."
