#!/usr/bin/env bash
# Replicated-cluster chaos drill: 2 partitions x 2 replicas + router on real
# processes. Phase A partitions one coordinator from partition 1's primary
# replica via -chaos; phase B SIGKILLs the partition-1 replica the router is
# using, mid-load; both must be
# invisible to clients (200s only, walks byte-identical to a single-process
# teaserve). Phase C kills the surviving sibling too — only then may the
# router answer 503, and it must carry Retry-After.
#
# pipefail matters: the determinism diff compares curl|python output, and
# without it a failed fetch yields two empty files that "match".
set -euxo pipefail

go build -o teaserve ./cmd/teaserve
go build -o tearouter ./cmd/tearouter
go run ./cmd/teagen -profile growth -seed 11 -o chaosgraph.teag

cleanup() { kill $(jobs -p) 2>/dev/null || true; wait 2>/dev/null || true; }
trap cleanup EXIT

./teaserve -input chaosgraph.teag -addr 127.0.0.1:8400 &

# 2 partitions x 2 replicas. Every process gets the same replicated peer
# map; -shard-replica picks which address it binds. Shard 0 replica 0 runs
# with a -chaos plan that, after 2 operations, drops every conn it makes to
# partition 1's primary (9421) — the mid-request failover path re-sends the
# in-flight walker frames to the sibling (9422).
PEERS='127.0.0.1:9411|127.0.0.1:9412,127.0.0.1:9421|127.0.0.1:9422'
./teaserve -input chaosgraph.teag -shard-id 0 -shard-replica 0 -shard-peers $PEERS \
  -chaos 'partition:peer=127.0.0.1:9421,after=2' -addr 127.0.0.1:8401 &
./teaserve -input chaosgraph.teag -shard-id 0 -shard-replica 1 -shard-peers $PEERS \
  -addr 127.0.0.1:8402 &
./teaserve -input chaosgraph.teag -shard-id 1 -shard-replica 0 -shard-peers $PEERS \
  -addr 127.0.0.1:8403 &
S1R0=$!
./teaserve -input chaosgraph.teag -shard-id 1 -shard-replica 1 -shard-peers $PEERS \
  -addr 127.0.0.1:8404 &
S1R1=$!

./tearouter \
  -shards 'http://127.0.0.1:8401|http://127.0.0.1:8402,http://127.0.0.1:8403|http://127.0.0.1:8404' \
  -request-timeout 15s -retry-after 1s -addr 127.0.0.1:8490 &

for i in $(seq 1 200); do
  curl -sf http://127.0.0.1:8490/readyz > /dev/null && break
  sleep 0.1
done
curl -sf http://127.0.0.1:8490/readyz

QUERIES=(
  "from=7&length=40&count=8&seed=3"
  "from=123&length=25&count=5&seed=99"
  "from=0&length=60&count=3&seed=7"
  "from=555&length=10&count=12&seed=1"
)

# Reference outputs from the single process, once.
mkdir -p refs
n=0
for q in "${QUERIES[@]}"; do
  curl -sf "http://127.0.0.1:8400/walk?$q" \
    | python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["walks"]))' > refs/$n.json
  n=$((n+1))
done

# check_round: every seeded query through the router must answer 200 (curl
# -sf fails the script on any 4xx/5xx) with walks byte-identical to the
# single-process reference.
check_round() {
  local n=0
  for q in "${QUERIES[@]}"; do
    curl -sf "http://127.0.0.1:8490/walk?$q" \
      | python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["walks"]))' > routed.json
    diff refs/$n.json routed.json
    n=$((n+1))
  done
}

# Phase A: the netchaos partition is live (after=2 ops) while these rounds
# run; the partitioned coordinator must fail its step batches over to 9422.
for round in 1 2 3; do check_round; done
echo "phase A OK: netchaos partition invisible (byte-identical, zero 5xx)"

# Phase B: SIGKILL the replica of partition 1 the router is sending to while
# load is in flight. The router prefers the replica with the lower latency
# EWMA, so which one that is depends on first-request timings: ask its
# replica table instead of assuming replica 0, or the kill may hit an idle
# replica the router never touches again.
DEAD=$(curl -sf http://127.0.0.1:8490/healthz | python3 -c '
import json, sys
print(max(json.load(sys.stdin)["replicas"]["1"], key=lambda r: r["ok_total"])["url"])
')
DEAD_PID=$S1R0 LIVE_PID=$S1R1 LIVE=http://127.0.0.1:8404
if [ "$DEAD" = "$LIVE" ]; then
  DEAD_PID=$S1R1 LIVE_PID=$S1R0 LIVE=http://127.0.0.1:8403
fi
( sleep 0.2; kill -9 $DEAD_PID ) &
KILLER=$!
for round in 1 2 3 4 5 6; do check_round; done
wait $KILLER
wait $DEAD_PID || true
check_round
echo "phase B OK: replica SIGKILL invisible (byte-identical, zero 5xx)"

# The router's replica table must show partition 1 degraded but served.
curl -s http://127.0.0.1:8490/healthz | DEAD=$DEAD LIVE=$LIVE python3 -c '
import json, os, sys
h = json.load(sys.stdin)
reps = {r["url"]: r for r in h["replicas"]["1"]}
dead = reps[os.environ["DEAD"]]
live = reps[os.environ["LIVE"]]
assert dead["err_total"] > 0 and dead["state"] in ("suspect", "open"), dead
assert live["state"] == "healthy" and live["ok_total"] > 0, live
print("replica topology OK:", {u: r["state"] for u, r in reps.items()})
'

# Federation keeps its per-shard labels when a replica is down: the scrape
# follows the surviving replica, still labeled shard="1".
curl -sf http://127.0.0.1:8490/metrics.json | python3 -c '
import json, sys
fed = {c["name"] for c in json.load(sys.stdin)["counters"]}
for want in (
    "tea_server_requests_total{endpoint=\"walk\",shard=\"0\"}",
    "tea_server_requests_total{endpoint=\"walk\",shard=\"1\"}",
    "tea_server_requests_total{endpoint=\"walk\",shard=\"all\"}",
    "tea_router_replica_failovers_total{shard=\"1\"}",
):
    assert want in fed, want
print("federation labels OK under replica outage")
'

# Phase C: kill the surviving sibling — partition 1 is now truly down, and
# ONLY now may the router answer 503. It must do so promptly, with
# Retry-After, never a 200 with partial walks.
kill -9 $LIVE_PID
wait $LIVE_PID || true
code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 20 \
  "http://127.0.0.1:8490/walk?from=7&length=40&count=8&seed=3")
test "$code" = 503
curl -s -D - -o /dev/null --max-time 20 \
  "http://127.0.0.1:8490/walk?from=7&length=5&count=1&seed=1" | grep -i '^retry-after:'
echo "phase C OK: whole partition down -> 503 + Retry-After"
