#!/usr/bin/env bash
# CI entry point: the tier-1 verify line (plus the src/ code-line count,
# scripts/loc.sh), then sanitizer builds of the
# test suite (ASan+UBSan with an end-to-end starringd/starring-cli
# service smoke, and TSan for the worker pool), then a Release-mode
# bench smoke diffed against the committed baseline artifact with
# scripts/bench_compare.py.
#
# Usage: scripts/ci.sh [--tier1-only | --san-only | --tsan-only |
#                       --bench-only | --service-only | --chaos-only |
#                       --load-only | --simdoff-only | --cluster-only]
# Env:   JOBS=<n> to cap build/test parallelism (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

run_tier1=1
run_san=1
run_tsan=1
run_bench=1
run_service=1
run_chaos=1
run_load=1
run_simdoff=1
run_cluster=1
case "${1:-}" in
  --tier1-only) run_san=0; run_tsan=0; run_bench=0; run_service=0; run_chaos=0; run_load=0; run_simdoff=0; run_cluster=0 ;;
  --san-only) run_tier1=0; run_tsan=0; run_bench=0; run_service=0; run_chaos=0; run_load=0; run_simdoff=0; run_cluster=0 ;;
  --tsan-only) run_tier1=0; run_san=0; run_bench=0; run_service=0; run_chaos=0; run_load=0; run_simdoff=0; run_cluster=0 ;;
  --bench-only) run_tier1=0; run_san=0; run_tsan=0; run_service=0; run_chaos=0; run_load=0; run_simdoff=0; run_cluster=0 ;;
  --service-only) run_tier1=0; run_san=0; run_tsan=0; run_bench=0; run_chaos=0; run_load=0; run_simdoff=0; run_cluster=0 ;;
  --chaos-only) run_tier1=0; run_san=0; run_tsan=0; run_bench=0; run_service=0; run_load=0; run_simdoff=0; run_cluster=0 ;;
  --load-only) run_tier1=0; run_san=0; run_tsan=0; run_bench=0; run_service=0; run_chaos=0; run_simdoff=0; run_cluster=0 ;;
  --simdoff-only) run_tier1=0; run_san=0; run_tsan=0; run_bench=0; run_service=0; run_chaos=0; run_load=0; run_cluster=0 ;;
  --cluster-only) run_tier1=0; run_san=0; run_tsan=0; run_bench=0; run_service=0; run_chaos=0; run_load=0; run_simdoff=0 ;;
  "") ;;
  *) echo "unknown flag: $1" >&2; exit 2 ;;
esac

# Drives ~100 mixed requests through a spawned daemon over stdio pipes
# (drive mode asserts every response, a nonzero cache-hit count, and a
# clean EOF-triggered drain), using whichever build tree is passed in.
# Collects the flight-recorder trace and the STATS exposition on the
# way and validates both with scripts/trace_validate.py.
service_smoke() {
  local build_dir="$1"
  local smoke_dir="$build_dir/service-smoke"
  mkdir -p "$smoke_dir"
  STARRING_BENCH_DIR="$smoke_dir" \
    "$build_dir/src/service/starring-cli" drive \
    --count 100 --seed 7 --nmin 5 --nmax 7 --verify --expect-hits \
    --trace-out "$smoke_dir/trace.json" \
    --stats-out "$smoke_dir/stats.prom" -- \
    "$build_dir/src/service/starringd" --verify-on-hit --bench-artifact service
  python3 - "$smoke_dir/BENCH_service.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c["svc.requests"] == 100, c
assert c["svc.cache_hits"] > 0, c
assert c.get("svc.verify_failures", 0) == 0, c
assert c.get("svc.embed_failures", 0) == 0, c
print(f"service smoke: {int(c['svc.cache_hits'])} hits / "
      f"{int(c['svc.requests'])} requests, artifact ok")
EOF
  python3 scripts/trace_validate.py \
    --trace "$smoke_dir/trace.json" --expect-hit-miss \
    --require-span svc.request --require-span svc.queue_wait \
    --require-span svc.canonicalize --require-span svc.cache_probe \
    --require-span svc.embed --require-span svc.relabel \
    --require-span svc.verify --require-span embed \
    --require-span super_ring --require-span verify \
    --prom "$smoke_dir/stats.prom" \
    --require-histogram starring_svc_latency_seconds
}

# TCP variant: a live daemon serving loopback, dump-on-SIGUSR1 for the
# flight recorder, STATS scraped over the wire by the driving client.
service_smoke_tcp() {
  local build_dir="$1"
  local smoke_dir="$build_dir/service-smoke-tcp"
  local port=47113
  mkdir -p "$smoke_dir"
  # Global and EXIT too, as in cluster_smoke: a failing gate ends the
  # script under set -e without running a RETURN trap.
  SERVICE_TCP_PIDS=()
  trap 'kill -9 "${SERVICE_TCP_PIDS[@]}" 2>/dev/null || true' RETURN EXIT
  "$build_dir/src/service/starringd" --listen "$port" \
    --trace-out "$smoke_dir/trace.json" &
  local daemon_pid=$!
  SERVICE_TCP_PIDS+=("$daemon_pid")
  for _ in $(seq 50); do
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "service smoke (tcp): daemon died during startup" >&2; return 1
    fi
    (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null && break
    sleep 0.1
  done
  "$build_dir/src/service/starring-cli" drive \
    --count 60 --seed 11 --nmin 5 --nmax 6 --verify --expect-hits \
    --connect "$port" --stats-out "$smoke_dir/stats.prom"
  # Live flight-recorder dump: SIGUSR1 is picked up by the daemon's
  # watcher thread within ~200ms.
  kill -USR1 "$daemon_pid"
  for _ in $(seq 50); do
    [[ -s "$smoke_dir/trace.json" ]] && break
    sleep 0.1
  done
  [[ -s "$smoke_dir/trace.json" ]] || {
    echo "service smoke (tcp): no trace after SIGUSR1" >&2; return 1; }
  python3 scripts/trace_validate.py \
    --trace "$smoke_dir/trace.json" --expect-hit-miss \
    --require-span svc.request --require-span svc.embed \
    --prom "$smoke_dir/stats.prom" \
    --require-histogram starring_svc_latency_seconds
  kill -TERM "$daemon_pid"
  wait "$daemon_pid"
  echo "service smoke (tcp): SIGUSR1 dump + STATS scrape ok"
}

# Open-loop multi-tenant soak: starring-load drives a quota-enabled
# daemon with a 10:1 zipf skew (hot vs cold) plus a low-rate one-pass
# scan tenant.  starring-load itself holds the hard QoS gates — no
# tenant's p99 beyond 3x the other's, aggregate cache hit rate above
# the floor — and the scraped STATS must expose the folded per-tenant
# histograms.  The whole run sits under a wall-clock timeout: an
# open-loop generator that cannot finish its window is itself a
# regression.  The resulting BENCH_load.json is then diffed against
# the committed artifact with the fairness ratio gated (ratio-scale
# counter, hence --gate-min-delta instead of the 1e6 phase floor).
load_soak() {
  local build_dir="$1"
  local soak_dir="$build_dir/load-soak"
  local port=47161
  mkdir -p "$soak_dir"
  # Global and EXIT too, as in cluster_smoke: a failing gate ends the
  # script under set -e without running a RETURN trap, and a daemon
  # left on port 47161 would be what the next run measures.
  LOAD_SOAK_PIDS=()
  trap 'kill -9 "${LOAD_SOAK_PIDS[@]}" 2>/dev/null || true' RETURN EXIT
  "$build_dir/src/service/starringd" --listen "$port" \
    --tenant-rate 500 --tenant-burst 250 &
  local daemon_pid=$!
  LOAD_SOAK_PIDS+=("$daemon_pid")
  for _ in $(seq 50); do
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
      echo "load soak: daemon died during startup" >&2; return 1
    fi
    (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null && break
    sleep 0.1
  done
  STARRING_BENCH_DIR="$soak_dir" timeout 120 \
    "$build_dir/src/loadgen/starring-load" \
    --connect "$port" --duration-ms 3000 --seed 7 \
    --tenant 'hot:rate=200:zipf=1.1:classes=24:nmin=5:nmax=6' \
    --tenant 'cold:rate=20:zipf=1.1:classes=24:nmin=5:nmax=6' \
    --tenant 'sweep:rate=5:pattern=scan:nmin=5:nmax=5' \
    --assert-p99-ratio 3 --min-hit-rate 0.55 \
    --stats-out "$soak_dir/stats.prom" --bench-artifact load
  python3 scripts/trace_validate.py \
    --prom "$soak_dir/stats.prom" \
    --require-histogram starring_svc_latency_seconds \
    --require-histogram starring_svc_tenant_hot_latency_seconds \
    --require-histogram starring_svc_tenant_cold_latency_seconds
  python3 scripts/bench_compare.py \
    bench/artifacts/BENCH_load.json "$soak_dir/BENCH_load.json" \
    --regression-pct 50 --gate load.p99_ratio_x100 --gate-min-delta 25
  kill -TERM "$daemon_pid"
  wait "$daemon_pid"
  echo "load soak: fairness + hit-rate gates ok"
}

# Cold-start smoke: a daemon handed a warm snapshot must start at
# least 5x faster than recomputing the same workload.  starring-cli
# warm prints warm_compute_ms (prewarm + embeds, serialization
# excluded); the daemon prints snapshot_load_ms to stderr; both are
# parsed out and the ratio asserted.  The drive itself asserts every
# response verifies and that the snapshot-seeded cache actually gets
# hit.  The workload is small on purpose: a handful of n=9 instances
# is the regime where recompute cost dominates and a cold daemon
# visibly lags.
cold_start_smoke() {
  local build_dir="$1"
  local dir="$build_dir/cold-start-smoke"
  mkdir -p "$dir"
  "$build_dir/src/service/starring-cli" warm \
    --out "$dir/oracle.snap" --count 8 --nmin 9 --nmax 9 --seed 3 \
    | tee "$dir/warm.log"
  "$build_dir/src/service/starring-cli" drive \
    --count 8 --nmin 9 --nmax 9 --seed 3 --verify --expect-hits -- \
    "$build_dir/src/service/starringd" --oracle-snapshot "$dir/oracle.snap" \
    2>&1 | tee "$dir/drive.log"
  python3 - "$dir/warm.log" "$dir/drive.log" <<'EOF'
import re, sys
warm = re.search(r"warm_compute_ms ([0-9.]+)", open(sys.argv[1]).read())
load = re.search(r"snapshot_load_ms ([0-9.]+)", open(sys.argv[2]).read())
assert warm, "starring-cli warm printed no warm_compute_ms"
assert load, "starringd printed no snapshot_load_ms (snapshot rejected?)"
w, l = float(warm.group(1)), float(load.group(1))
print(f"cold start: recompute {w:.1f} ms vs snapshot load {l:.1f} ms "
      f"= {w / l:.1f}x")
assert w / l >= 5.0, \
    f"snapshot cold-start speedup {w / l:.2f}x is below the 5x floor"
EOF
}

# Sharded-cluster smoke, two phases driven by the same zipf workload:
#
#   A. one starringd with a deliberately small cache — the capacity-
#      starved baseline hit rate.
#   B. three such shards behind starring-proxy, with one shard
#      SIGKILLed mid-run.
#
# starring-load's own exit code is the zero-failed-requests gate (an
# unanswered request or a `status error` is rc 1), the whole of each
# phase sits under a hard `timeout`, and the final assertions are:
# every request terminal despite the kill, at least one proxy failover,
# the survivors absorbed traffic, and the aggregate cluster hit rate
# beats phase A — sharding 3 small caches behind consistent hashing
# must outperform one small cache on the same keys.  The resulting
# BENCH_cluster.json is then diffed against the committed artifact
# with the hit rate gated.
cluster_smoke() {
  local build_dir="$1"
  local dir="$build_dir/cluster-smoke"
  mkdir -p "$dir"
  local ports=(47181 47182 47183)
  local proxy_port=47185
  # Gentle skew on purpose: at zipf=0.6 the working set of 96 classes
  # dwarfs one shard's 24-entry cache but fits the cluster's aggregate,
  # so the phase A vs B hit-rate gap is structural, not jitter.
  local workload=(--duration-ms 4000 --seed 7
    --tenant 'hot:rate=150:zipf=0.6:classes=96:nmin=5:nmax=6'
    --tenant 'warm:rate=60:zipf=0.6:classes=96:nmin=5:nmax=6')
  # Global on purpose: the EXIT trap must still see the array after a
  # failed gate unwinds the function's locals (set -e exits skip the
  # RETURN trap), otherwise orphaned daemons hold the fixed ports and
  # poison the next run.
  CLUSTER_SMOKE_PIDS=()
  trap 'kill -9 "${CLUSTER_SMOKE_PIDS[@]}" 2>/dev/null || true' RETURN EXIT
  # And sweep listeners a previous aborted run may have leaked anyway.
  pkill -9 -f "starringd --listen 4718" 2>/dev/null || true
  pkill -9 -f "starring-proxy .*--listen $proxy_port" 2>/dev/null || true

  wait_port() {
    local port="$1" pid="$2"
    for _ in $(seq 100); do
      if ! kill -0 "$pid" 2>/dev/null; then
        echo "cluster smoke: process on port $port died during startup" >&2
        return 1
      fi
      (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null && return 0
      sleep 0.1
    done
    echo "cluster smoke: port $port never came up" >&2
    return 1
  }

  echo "-- phase A: single capacity-starved shard"
  "$build_dir/src/service/starringd" --listen "${ports[0]}" \
    --cache-capacity 24 > "$dir/single.log" 2>&1 &
  local single_pid=$!
  CLUSTER_SMOKE_PIDS+=("$single_pid")
  wait_port "${ports[0]}" "$single_pid"
  STARRING_BENCH_DIR="$dir" timeout 120 \
    "$build_dir/src/loadgen/starring-load" \
    --connect "${ports[0]}" "${workload[@]}" \
    --bench-artifact cluster_single
  kill -TERM "$single_pid" && wait "$single_pid" || true

  echo "-- phase B: 3 shards + starring-proxy, owner SIGKILL mid-run"
  local map="$dir/shards.map"
  {
    echo "starring-shard-map v1"
    echo "epoch 1"
    echo "replication 2"
    echo "shards 3"
    for i in 0 1 2; do
      echo "shard $i 127.0.0.1:${ports[$i]}"
    done
    echo "end"
  } > "$map"
  local shard_pids=()
  for i in 0 1 2; do
    STARRING_TRACE_BUFFER=16384 \
    "$build_dir/src/service/starringd" --listen "${ports[$i]}" \
      --cache-capacity 24 --shard-id "$i" --shard-map "$map" --trace \
      > "$dir/shard$i.log" 2>&1 &
    shard_pids+=($!)
    CLUSTER_SMOKE_PIDS+=("${shard_pids[$i]}")
  done
  for i in 0 1 2; do
    wait_port "${ports[$i]}" "${shard_pids[$i]}"
  done
  # --trace-out arms span recording in the proxy and, at clean exit,
  # pulls every live shard's spans over TRACE into one merged Perfetto
  # file; --slow-ms arms the slow-request flight recorder (dumped to
  # the proxy log at exit).
  STARRING_TRACE_BUFFER=16384 \
  "$build_dir/src/cluster/starring-proxy" --shard-map "$map" \
    --listen "$proxy_port" --seed-threshold 2 --health-interval-ms 250 \
    --trace-out "$dir/cluster_trace.json" --slow-ms 5 --slow-keep 8 \
    > "$dir/proxy.log" 2>&1 &
  local proxy_pid=$!
  CLUSTER_SMOKE_PIDS+=("$proxy_pid")
  wait_port "$proxy_port" "$proxy_pid"
  # The kill lands while the workload is in full swing; replication +
  # failover must keep every in-flight and subsequent request terminal.
  ( sleep 2; kill -9 "${shard_pids[2]}" 2>/dev/null ) &
  local killer=$!
  STARRING_BENCH_DIR="$dir" timeout 120 \
    "$build_dir/src/loadgen/starring-load" \
    --connect "$proxy_port" "${workload[@]}" --trace \
    --stats-out "$dir/proxy.prom" --bench-artifact cluster
  wait "$killer"

  echo "-- phase B2: traced drive with an induced live-shard bounce"
  # Arm an alternating response-write failure on shard 0: half the
  # requests that land there look like a dead upstream to the proxy and
  # fail over to the other live shard — so some client traces cross the
  # proxy and BOTH surviving shard processes (the SIGKILLed shard's
  # spans died with it), which is what the stitching gate below
  # requires.  Alternating (not every) keeps shard 0's failure streak
  # below the breaker threshold.
  fail_cmd() {
    python3 - "$1" "$2" <<'EOF'
import socket, sys
with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10) as s:
    s.sendall(("FAIL " + sys.argv[2] + "\n").encode())
    reply = s.recv(256)
    assert reply.startswith(b"FAIL ok"), f"FAIL command refused: {reply!r}"
EOF
  }
  fail_cmd "${ports[0]}" "io.write_response=error@every:2"
  timeout 120 "$build_dir/src/service/starring-cli" drive \
    --connect "$proxy_port" --count 40 --seed 11 --trace --retry 3 \
    | tee "$dir/traced_drive.log"
  grep -q "hops: .* traced requests" "$dir/traced_drive.log" || {
    echo "cluster smoke: traced drive printed no hop summary" >&2
    exit 1
  }
  fail_cmd "${ports[0]}" "clear"
  python3 - "$dir" "${ports[0]}" "${ports[1]}" <<'EOF'
import json, socket, sys
dir_, survivors = sys.argv[1], sys.argv[2:]

def scrape(port):
    with socket.create_connection(("127.0.0.1", int(port)), timeout=10) as s:
        s.sendall(b"STATS\n")
        buf = b""
        while b"\nend\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode()

def scalar(text, name):
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    return None

# Survivors absorbed the dead shard's keys: both served real traffic.
for port in survivors:
    text = scrape(port)
    served = scalar(text, "starring_svc_requests")
    assert served and served > 0, f"surviving shard :{port} served nothing"
    print(f"cluster smoke: survivor :{port} served {int(served)} requests")

# The proxy actually exercised the failover path when the shard died.
proxy = open(f"{dir_}/proxy.prom").read()
failover = scalar(proxy, "starring_cluster_failover")
assert failover and failover >= 1, f"no failover recorded: {failover}"
print(f"cluster smoke: {int(failover)} failovers")

# Aggregate cluster hit rate must beat the capacity-starved single
# shard on the identical workload.
single = json.load(open(f"{dir_}/BENCH_cluster_single.json"))["counters"]
cluster = json.load(open(f"{dir_}/BENCH_cluster.json"))["counters"]
s, c = single["load.hit_rate_x1000"], cluster["load.hit_rate_x1000"]
assert s >= 0 and c >= 0, (s, c)
print(f"cluster smoke: hit rate single {s/1000:.3f} vs cluster {c/1000:.3f}")
assert c > s, f"cluster hit rate {c} did not beat single-shard {s}"
EOF
  python3 scripts/bench_compare.py \
    bench/artifacts/BENCH_cluster.json "$dir/BENCH_cluster.json" \
    --regression-pct 50 --gate load.hit_rate_x1000 --gate-min-delta 100
  # Stop the proxy BEFORE the shards: its exit path pulls each live
  # shard's spans over TRACE and writes the merged cluster trace.  The
  # SIGKILLed shard's spans are gone — the stitching checks only need
  # the proxy plus the two survivors.
  kill -TERM "$proxy_pid" 2>/dev/null || true
  wait "$proxy_pid" 2>/dev/null || true
  python3 scripts/trace_validate.py --trace "$dir/cluster_trace.json" \
    --cluster --expect-failover \
    --require-span proxy.request --require-span proxy.canonicalize \
    --require-span proxy.route --require-span proxy.forward \
    --require-span svc.request
  grep -q "slow requests:" "$dir/proxy.log" || {
    echo "cluster smoke: no slow-request recorder dump in proxy.log" >&2
    exit 1
  }
  kill -TERM "${shard_pids[0]}" "${shard_pids[1]}" 2>/dev/null || true
  echo "cluster smoke: failover + hit-rate + trace-stitching gates ok"
}

# Membership-churn drill: the dynamic-membership counterpart of
# cluster_smoke.  No shard-map file anywhere — shard 0 bootstraps a
# single-member cluster and everyone else gossips their way in:
#
#   t=0    shard 0 --bootstrap, shard 1 --join, proxy --join
#   t≈0    9s open-loop zipf load through the proxy starts
#   t+2s   shard 2 live-joins mid-load (expects seed handoff to warm it)
#   t+4s   shard 0 leaves gracefully (LEAVE: zero failover events)
#   t+5s   shard 1 is SIGKILLed (suspicion must bury it within ~5s)
#
# Gates: starring-load exits 0 (every request terminal through all
# three transitions), the proxy's map epoch advanced, the SIGKILLed
# shard is marked dead in the proxy's MEMBERS view, the graceful
# departure caused no failovers, and the late joiner both accepted
# seed records and served real traffic.
membership_churn() {
  local build_dir="$1"
  local dir="$build_dir/membership-churn"
  mkdir -p "$dir"
  local ports=(47191 47192 47193)
  local proxy_port=47195
  local seed_addr="127.0.0.1:${ports[0]}"
  local gossip=(--gossip-interval-ms 100 --suspicion-timeout-ms 1000)
  CHURN_PIDS=()
  trap 'kill -9 "${CHURN_PIDS[@]}" 2>/dev/null || true' RETURN EXIT
  pkill -9 -f "starringd --listen 4719" 2>/dev/null || true
  pkill -9 -f "starring-proxy .*--listen $proxy_port" 2>/dev/null || true

  wait_port() {
    local port="$1" pid="$2"
    for _ in $(seq 100); do
      if ! kill -0 "$pid" 2>/dev/null; then
        echo "membership churn: process on port $port died during startup" >&2
        return 1
      fi
      (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null && return 0
      sleep 0.1
    done
    echo "membership churn: port $port never came up" >&2
    return 1
  }

  # One helper for every wire-side query the drill needs: HEALTH epoch,
  # MEMBERS state of one address, STATS scalar.
  query() {
    python3 - "$@" <<'EOF'
import socket, sys
mode, port = sys.argv[1], int(sys.argv[2])
def ask(cmd):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall((cmd + "\n").encode())
        buf = b""
        while b"\nend\n" not in buf and b"end\n" != buf[:4]:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode()
if mode == "epoch":
    for line in ask("HEALTH").splitlines():
        if line.startswith("epoch "):
            print(line.split()[1]); break
elif mode == "state":
    addr, state = sys.argv[3], ""
    for line in ask("MEMBERS").splitlines():
        tok = line.split()
        if len(tok) == 5 and tok[0] == "member" and tok[1] == addr:
            state = tok[4]
    print(state or "absent")
elif mode == "stat":
    name, val = sys.argv[3], "0"
    for line in ask("STATS").splitlines():
        if line.startswith(name + " "):
            val = line.split()[1]
    print(val)
EOF
  }

  echo "-- membership churn: bootstrap + join (no shard-map file)"
  "$build_dir/src/service/starringd" --listen "${ports[0]}" --shard-id 0 \
    --bootstrap --cache-capacity 24 "${gossip[@]}" \
    > "$dir/shard0.log" 2>&1 &
  local shard0_pid=$!
  CHURN_PIDS+=("$shard0_pid")
  wait_port "${ports[0]}" "$shard0_pid"
  "$build_dir/src/service/starringd" --listen "${ports[1]}" --shard-id 1 \
    --join "$seed_addr" --cache-capacity 24 "${gossip[@]}" \
    > "$dir/shard1.log" 2>&1 &
  local shard1_pid=$!
  CHURN_PIDS+=("$shard1_pid")
  wait_port "${ports[1]}" "$shard1_pid"
  "$build_dir/src/cluster/starring-proxy" --join "$seed_addr" \
    --listen "$proxy_port" --seed-threshold 2 --health-interval-ms 250 \
    "${gossip[@]}" > "$dir/proxy.log" 2>&1 &
  local proxy_pid=$!
  CHURN_PIDS+=("$proxy_pid")
  wait_port "$proxy_port" "$proxy_pid"
  # Both shards visible to the proxy before load starts.
  for _ in $(seq 50); do
    [[ "$(query state "$proxy_port" "127.0.0.1:${ports[1]}")" == alive ]] \
      && break
    sleep 0.1
  done
  local epoch0
  epoch0="$(query epoch "$proxy_port")"
  [[ -n "$epoch0" ]] || { echo "membership churn: no proxy epoch" >&2; exit 1; }

  timeout 120 "$build_dir/src/loadgen/starring-load" \
    --connect "$proxy_port" --duration-ms 9000 --seed 7 \
    --tenant 'hot:rate=100:zipf=0.9:classes=48:nmin=5:nmax=6' \
    --tenant 'warm:rate=40:zipf=0.9:classes=48:nmin=5:nmax=6' \
    --stats-out "$dir/load.prom" > "$dir/load.log" 2>&1 &
  local load_pid=$!

  echo "-- membership churn: live join mid-load"
  sleep 2
  "$build_dir/src/service/starringd" --listen "${ports[2]}" --shard-id 2 \
    --join "$seed_addr" --cache-capacity 24 "${gossip[@]}" \
    > "$dir/shard2.log" 2>&1 &
  local shard2_pid=$!
  CHURN_PIDS+=("$shard2_pid")
  wait_port "${ports[2]}" "$shard2_pid"
  sleep 1.5  # gossip convergence + seed handoff to the new replica

  echo "-- membership churn: graceful LEAVE under load"
  local f0 f1
  f0="$(query stat "$proxy_port" starring_cluster_failover)"
  python3 - "${ports[0]}" <<'EOF'
import socket, sys
with socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10) as s:
    s.sendall(b"LEAVE\n")
    reply = s.recv(256)
    assert reply.startswith(b"LEAVE ok"), f"LEAVE refused: {reply!r}"
EOF
  wait "$shard0_pid" 2>/dev/null || true
  sleep 1
  f1="$(query stat "$proxy_port" starring_cluster_failover)"
  if [[ "${f1%.*}" != "${f0%.*}" ]]; then
    echo "membership churn: graceful LEAVE caused failovers ($f0 -> $f1)" >&2
    exit 1
  fi
  [[ "$(query state "$proxy_port" "$seed_addr")" == left ]] || {
    echo "membership churn: departed shard not marked left" >&2; exit 1; }

  echo "-- membership churn: SIGKILL + suspicion"
  kill -9 "$shard1_pid" 2>/dev/null || true
  local buried=0
  for _ in $(seq 50); do  # probe fail + 1s suspicion window, 5s budget
    if [[ "$(query state "$proxy_port" "127.0.0.1:${ports[1]}")" == dead ]]
    then buried=1; break; fi
    sleep 0.1
  done
  [[ "$buried" == 1 ]] || {
    echo "membership churn: SIGKILLed shard never declared dead" >&2; exit 1; }

  wait "$load_pid"  # rc != 0 (a failed request) fails the phase via set -e
  local epoch1
  epoch1="$(query epoch "$proxy_port")"
  if (( epoch1 <= epoch0 )); then
    echo "membership churn: map epoch never advanced ($epoch0 -> $epoch1)" >&2
    exit 1
  fi
  local seeds served
  seeds="$(query stat "${ports[2]}" starring_svc_seeds_accepted)"
  served="$(query stat "${ports[2]}" starring_svc_requests)"
  if [[ "${seeds%.*}" -lt 1 || "${served%.*}" -lt 1 ]]; then
    echo "membership churn: late joiner not warmed (seeds=$seeds served=$served)" >&2
    exit 1
  fi
  kill -TERM "$proxy_pid" 2>/dev/null || true
  wait "$proxy_pid" 2>/dev/null || true
  kill -TERM "$shard2_pid" 2>/dev/null || true
  echo "membership churn: join/leave/kill drill ok" \
    "(epoch $epoch0 -> $epoch1, joiner seeds=${seeds%.*} served=${served%.*})"
}

if [[ "$run_tier1" == 1 ]]; then
  echo "== tier-1: RelWithDebInfo build + full ctest =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")
  echo "== tier-1: code lines under src/ (ROADMAP item 5) =="
  scripts/loc.sh
fi

if [[ "$run_san" == 1 ]]; then
  echo "== sanitizers: ASan+UBSan Debug build + full ctest =="
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && \
    ASAN_OPTIONS=detect_leaks=0 \
    UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --output-on-failure -j "$JOBS")
  echo "== service smoke under ASan+UBSan: starringd drain + cache hits =="
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    service_smoke build-asan
  echo "== service smoke under ASan+UBSan: TCP + SIGUSR1 dump + STATS =="
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    service_smoke_tcp build-asan
fi

if [[ "$run_service" == 1 && "$run_san" == 0 ]]; then
  echo "== service smoke: starringd drain + cache hits (tier-1 build) =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target starringd starring-cli
  service_smoke build
  echo "== service smoke: TCP + SIGUSR1 dump + STATS (tier-1 build) =="
  service_smoke_tcp build
fi

if [[ "$run_chaos" == 1 ]]; then
  echo "== chaos smoke: failpoint storm + slow-client eviction + bounded drain =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target starringd
  # The whole smoke runs under a hard wall-clock bound: the invariant
  # under chaos is "nothing hangs", and the timeout IS that gate.
  timeout 300 python3 scripts/chaos_smoke.py build/src/service/starringd
fi

if [[ "$run_load" == 1 ]]; then
  echo "== load soak: open-loop multi-tenant QoS (p99 fairness + hit-rate gates) =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target starringd starring-load
  load_soak build
fi

if [[ "$run_cluster" == 1 ]]; then
  echo "== cluster smoke: 3 shards + proxy, SIGKILL mid-run, hit-rate gate =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target starringd starring-proxy \
    starring-load starring-cli
  cluster_smoke build
  echo "== membership churn: live join, graceful leave, SIGKILL suspicion =="
  membership_churn build
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== sanitizers: TSan build + full ctest (worker pool, shared oracle cache) =="
  TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1 -g"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "$JOBS"
  (cd build-tsan && \
    TSAN_OPTIONS=halt_on_error=1 \
    ctest --output-on-failure -j "$JOBS")
fi

if [[ "$run_bench" == 1 ]]; then
  echo "== bench smoke: Release BM_EmbedMaxFaults vs committed baseline =="
  # Failpoints are compiled out of the bench build: the hot path must
  # show no regression with the reliability layer reduced to nothing.
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release \
    -DSTARRING_FAILPOINTS=OFF
  cmake --build build-bench -j "$JOBS" --target bench_runtime
  SMOKE_DIR="build-bench/bench-smoke"
  mkdir -p "$SMOKE_DIR"
  STARRING_BENCH_DIR="$SMOKE_DIR" ./build-bench/bench/bench_runtime \
    --benchmark_filter='BM_EmbedMaxFaults/(8|9)'
  # The committed artifact was measured on a different machine, so only
  # order-of-magnitude per-call wall-clock growth is flagged; the
  # counters in the diff are the signal reviewers read.
  python3 scripts/bench_compare.py \
    bench/artifacts/BENCH_runtime.json "$SMOKE_DIR/BENCH_runtime.json" \
    --normalize-by embed.calls --regression-pct 100
  echo "== bench smoke: tracing overhead on BM_EmbedMaxFaults (n=9) =="
  cmake --build build-bench -j "$JOBS" --target bench_trace
  STARRING_BENCH_DIR="$SMOKE_DIR" ./build-bench/bench/bench_trace
  # Disabled-tracing cost is gated hard: the fastest-iteration CPU time
  # of the span-sites-disabled pipeline must stay within 2% (plus the
  # 1ms granularity floor) of the committed baseline.  Only the min
  # statistic is gated — the phase sums and wall_ms jitter far beyond
  # 2% on a shared box and stay informational.
  python3 scripts/bench_compare.py \
    bench/artifacts/BENCH_trace.json "$SMOKE_DIR/BENCH_trace.json" \
    --regression-pct 2 --gate phase.trace_off_embed_min_ns
  python3 - "$SMOKE_DIR/BENCH_trace.json" <<'EOF'
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
pct = c.get("trace.overhead_pct")
assert pct is not None, "bench_trace artifact lacks trace.overhead_pct"
print(f"tracing enabled-vs-disabled overhead: {pct:+.2f}%")
EOF
  echo "== bench smoke: SIMD permutation kernels vs committed baseline =="
  cmake --build build-bench -j "$JOBS" --target bench_perm
  STARRING_BENCH_DIR="$SMOKE_DIR" ./build-bench/bench/bench_perm \
    --benchmark_filter='BM_Batch.*/9/'
  # Gate the active-tier mins only: a dispatch regression to scalar is
  # a +230%..+1300% jump on these, far above run-to-run jitter, while
  # the scalar series and the speedup ratios move with the hardware and
  # stay informational.  --gate-min-delta drops the 1e6 counter floor
  # to 10us so the sub-millisecond mins are actually guarded.
  python3 scripts/bench_compare.py \
    bench/artifacts/BENCH_perm.json "$SMOKE_DIR/BENCH_perm.json" \
    --regression-pct 100 --gate-min-delta 10000 \
    --gate phase.perm.rank_simd_min_ns,phase.perm.unrank_simd_min_ns,phase.perm.parity_simd_min_ns,phase.perm.relabel_simd_min_ns,phase.perm.inverse_simd_min_ns
  echo "== bench smoke: n=8 response codec vs committed baseline =="
  cmake --build build-bench -j "$JOBS" --target bench_service
  STARRING_BENCH_DIR="$SMOKE_DIR" ./build-bench/bench/bench_service \
    --benchmark_filter='BM_(Write|Read)Response/8'
  # Gated like the permutation kernels: one stream call per id costs
  # +190%..+600% on these mins, far above run-to-run jitter.
  python3 scripts/bench_compare.py \
    bench/artifacts/BENCH_service_micro.json \
    "$SMOKE_DIR/BENCH_service_micro.json" \
    --regression-pct 100 --gate-min-delta 10000 \
    --gate phase.codec.write_response_min_ns,phase.codec.read_response_min_ns
  echo "== bench smoke: snapshot cold start vs recompute (n=9) =="
  cmake --build build-bench -j "$JOBS" --target starringd starring-cli
  cold_start_smoke build-bench
  echo "== bench smoke: end-to-end benchmark harness builds and passes its tests =="
  # The harness links the repository's libraries and calls the record
  # codec directly, so a codec signature change fails here rather than
  # at the next benchmark run.
  python3 e2ebench/run.py --selftest
fi

if [[ "$run_simdoff" == 1 ]]; then
  echo "== build matrix: -DSTARRING_SIMD=OFF (scalar-only kernels) =="
  cmake -B build-simdoff -S . -DSTARRING_SIMD=OFF
  cmake --build build-simdoff -j "$JOBS" \
    --target test_simd test_canonical test_oracle_store test_chain_pin \
    test_verify
  # Run the binaries directly: ctest's discovered lists cover targets
  # this leg deliberately did not build.  test_chain_pin holds the
  # scalar kernels to the same ring and path bytes as the SIMD build;
  # test_verify holds the verifier, which decodes through the scalar
  # unrank here, to the same verdicts and messages.
  ./build-simdoff/tests/test_simd
  ./build-simdoff/tests/test_canonical
  ./build-simdoff/tests/test_oracle_store
  ./build-simdoff/tests/test_chain_pin
  ./build-simdoff/tests/test_verify
  echo "== env override: STARRING_SIMD=off on the SIMD-enabled build =="
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target test_simd
  STARRING_SIMD=off ./build/tests/test_simd
fi

echo "== ci.sh: all requested stages passed =="
