#!/usr/bin/env bash
# Local CI: everything a PR must keep green, in dependency order.
#
#   ./ci.sh            full run (build, tests, clippy, smokes, perfbench)
#   ./ci.sh --fast     skip clippy, the smokes and perfbench
#
# The workspace has no external dependencies, so everything runs with
# --offline and an empty registry.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "==> cargo build --workspace --release"
cargo build --workspace --release --offline

echo "==> cargo test --workspace"
cargo test --workspace --release -q --offline

if [[ $fast -eq 0 ]]; then
  echo "==> cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets --offline -- -D warnings

  echo "==> repro all --timing smoke (writes BENCH_repro.json)"
  start=$(date +%s)
  ./target/release/repro all --timing > /dev/null
  echo "    repro all completed in $(( $(date +%s) - start ))s"
  test -s BENCH_repro.json
  echo "    BENCH_repro.json written ($(wc -c < BENCH_repro.json) bytes)"

  echo "==> repro --profile smoke (Chrome-trace export)"
  # fig8 rebuilds 18 models, so the trace must cover every engine phase.
  # repro itself re-parses the file through the workspace JSON parser and
  # exits non-zero if the trace is malformed.
  trace=/tmp/trace.json
  rm -f "$trace"
  ./target/release/repro --profile "$trace" --threads 2 fig8 > /dev/null
  test -s "$trace"
  grep -q '"traceEvents"' "$trace" || { echo "    $trace has no traceEvents array"; exit 1; }
  for phase in model.build model.validate model.geometry model.devices model.charges model.power; do
    grep -q "\"$phase\"" "$trace" || { echo "    $trace is missing the $phase phase"; exit 1; }
  done
  echo "    $trace written ($(wc -c < "$trace") bytes, all 6 model phases present)"

  echo "==> dram-power --trace smoke (in-memory trace through the power-state machine)"
  # A legal act/rd/pre access plus a pde..pdx nap must be priced; an act
  # issued while powered down must exit non-zero naming the violation.
  trace_dir=$(mktemp -d)
  printf '# length 2000\n0 0 act\n12 0 rd\n28 0 pre\n100 0 pde\n1000 0 pdx\n' > "$trace_dir/legal.trace"
  printf '# length 2000\n0 0 pde\n500 0 act\n1000 0 pdx\n' > "$trace_dir/asleep.trace"
  legal_out=$(./target/release/dram-power --preset 55 --trace "$trace_dir/legal.trace") \
    || { echo "    dram-power rejected a legal trace"; exit 1; }
  legal_line=$(grep "^trace .*: 5 commands over" <<<"$legal_out") \
    || { echo "    dram-power printed no trace line for the legal trace"; exit 1; }
  if asleep_err=$(./target/release/dram-power --preset 55 --trace "$trace_dir/asleep.trace" 2>&1); then
    echo "    dram-power priced an act issued while powered down"; exit 1
  fi
  grep -q 'act at cycle 500 while in precharge_power_down (command_while_asleep)' <<<"$asleep_err" \
    || { echo "    dram-power error does not name the violation: $asleep_err"; exit 1; }
  rm -rf "$trace_dir"
  echo "    legal trace priced (${legal_line##*— }); act while powered down refused"

  echo "==> dram-serve smoke (boot, tracing, deadline, SIGTERM drain)"
  serve_log=$(mktemp)
  ./target/release/dram-serve --addr 127.0.0.1:0 --threads 2 --deadline-ms 1000 > "$serve_log" &
  serve_pid=$!
  trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$serve_log")
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  [[ -n "$port" ]] || { echo "    dram-serve never reported its port"; exit 1; }
  smoke() { # method path body — fails unless the reply is a traced HTTP 200
    local method=$1 path=$2 body=$3 reply status
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '%s %s HTTP/1.1\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
      "$method" "$path" "${#body}" "$body" >&3
    reply=$(cat <&3)
    exec 3<&- 3>&-
    status=${reply:0:12}
    [[ "$status" == "HTTP/1.1 200" ]] || { echo "    $method $path -> ${status} (want 200)"; return 1; }
    grep -q 'x-request-id: ' <<<"$reply" || { echo "    $method $path reply has no x-request-id"; return 1; }
    echo "    $method $path -> 200 (x-request-id present)"
  }
  smoke GET /healthz ""
  smoke POST /v1/evaluate '{"preset":"ddr3_1g_x16_55nm"}'
  smoke POST /v1/batch '{"requests":[{"preset":"ddr3_1g_x16_55nm"},{"preset":"ddr2_1g_75nm"}]}'

  # Stream a generated command trace through /v1/trace with chunked
  # transfer-encoding (the one route that folds chunks incrementally).
  # 200 plus a self-refresh breakdown proves the five-state machine ran;
  # the counters must then be visible in the Prometheus scrape below.
  trace_file=$(mktemp)
  {
    printf '!preset ddr3_1g_x16_55nm\n!policy aggressive\n'
    awk 'BEGIN {
      t = 0
      for (i = 0; i < 250; i++) {
        b = i % 8
        printf "%d act %d\n%d rd %d\n%d wr %d\n%d pre %d\n", t, b, t+6, b, t+10, b, t+14, b
        t += 120
      }
      printf "%d pde\n%d pdx\n%d sre\n%d srx\n", t, t+2000, t+4000, t+90000
      printf "!length %d\n", t+100000
    }'
  } > "$trace_file"
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'POST /v1/trace HTTP/1.1\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n' >&3
  # One chunk per 1000-byte slice of the trace, then the 0 terminator.
  split -b 1000 "$trace_file" "$trace_file.chunk."
  for chunk in "$trace_file".chunk.*; do
    printf '%x\r\n' "$(wc -c < "$chunk")" >&3
    cat "$chunk" >&3
    printf '\r\n' >&3
  done
  printf '0\r\n\r\n' >&3
  trace_reply=$(cat <&3)
  exec 3<&- 3>&-
  rm -f "$trace_file" "$trace_file".chunk.*
  [[ "${trace_reply:0:12}" == "HTTP/1.1 200" ]] \
    || { echo "    POST /v1/trace -> ${trace_reply:0:12} (want 200)"; exit 1; }
  grep -q '"commands":1004,' <<<"$trace_reply" \
    || { echo "    /v1/trace reply did not count 1004 commands"; exit 1; }
  grep -q '"self_refresh":{"cycles":' <<<"$trace_reply" \
    || { echo "    /v1/trace reply has no self_refresh breakdown"; exit 1; }
  echo "    POST /v1/trace (chunked) -> 200 (1004 commands, self-refresh billed)"

  # After traffic, /metrics must surface at least one slow-request sample
  # (with its request id) for the evaluate route.
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n' >&3
  metrics=$(cat <&3)
  exec 3<&- 3>&-
  grep -q '"slow_requests"' <<<"$metrics" || { echo "    /metrics has no slow_requests table"; exit 1; }
  grep -q '"evaluate":\[{"id":' <<<"$metrics" || { echo "    /metrics has no evaluate slow sample"; exit 1; }
  echo "    GET /metrics -> slow_requests sample present"

  # The same endpoint must also speak Prometheus text exposition v0.0.4
  # when asked via ?format=prometheus.
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET /metrics?format=prometheus HTTP/1.1\r\nconnection: close\r\n\r\n' >&3
  prom=$(cat <&3)
  exec 3<&- 3>&-
  grep -q 'content-type: text/plain; version=0.0.4' <<<"$prom" \
    || { echo "    prometheus /metrics has the wrong content-type"; exit 1; }
  grep -q '^# TYPE dram_serve_requests_total counter' <<<"$prom" \
    || { echo "    prometheus /metrics has no # TYPE lines"; exit 1; }
  grep -q '^dram_serve_uptime_seconds ' <<<"$prom" \
    || { echo "    prometheus /metrics has no uptime gauge"; exit 1; }
  grep -q '^dram_serve_build_info{version=' <<<"$prom" \
    || { echo "    prometheus /metrics has no build info"; exit 1; }
  # The streamed trace above must be visible in the registry families.
  trace_total=$(sed -n 's|^dram_trace_commands_total \([0-9]*\)$|\1|p' <<<"$prom")
  [[ -n "$trace_total" && "$trace_total" -ge 1004 ]] \
    || { echo "    prometheus /metrics: dram_trace_commands_total is ${trace_total:-absent} (want >= 1004)"; exit 1; }
  grep -q '^dram_trace_state_cycles_self_refresh_total ' <<<"$prom" \
    || { echo "    prometheus /metrics has no per-state trace cycle counters"; exit 1; }
  echo "    GET /metrics?format=prometheus -> text exposition v0.0.4 present ($trace_total trace commands counted)"

  # Flight-recorder smoke: the default --journal 16384 is armed, so the
  # x-request-id captured from a fresh evaluate must reconstruct into a
  # complete accept -> dispatch -> worker_start -> response timeline via
  # the loopback-only debug family, and a live 100 ms profiling window
  # must return Chrome-trace JSON (full dram_units::json round-trip
  # coverage lives in the serve-bench --journal stage below).
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'POST /v1/evaluate HTTP/1.1\r\ncontent-length: 29\r\nconnection: close\r\n\r\n{"preset":"ddr3_1g_x16_55nm"}' >&3
  eval_reply=$(cat <&3)
  exec 3<&- 3>&-
  debug_id=$(sed -n 's|^x-request-id: \([0-9a-f-]*\).*|\1|p' <<<"$eval_reply" | tr -d '\r')
  [[ -n "$debug_id" ]] || { echo "    evaluate reply carried no x-request-id"; exit 1; }
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET /debug/requests/%s HTTP/1.1\r\nconnection: close\r\n\r\n' "$debug_id" >&3
  timeline=$(cat <&3)
  exec 3<&- 3>&-
  [[ "${timeline:0:12}" == "HTTP/1.1 200" ]] \
    || { echo "    GET /debug/requests/$debug_id -> ${timeline:0:12} (want 200)"; exit 1; }
  grep -q '"complete":true' <<<"$timeline" \
    || { echo "    timeline for $debug_id is not complete"; exit 1; }
  for kind in accept dispatch worker_start response; do
    grep -q "\"kind\":\"$kind\"" <<<"$timeline" \
      || { echo "    timeline for $debug_id is missing the $kind event"; exit 1; }
  done
  # The lifecycle kinds must appear in causal order in the (time-sorted)
  # event stream.
  kinds=$(grep -o '"kind":"[a-z_]*"' <<<"$timeline" | tr -d '"' | cut -d: -f2 | tr '\n' ' ')
  [[ "$kinds" == *"accept"*"dispatch"*"worker_start"*"response"* ]] \
    || { echo "    timeline kinds out of order: $kinds"; exit 1; }
  echo "    GET /debug/requests/$debug_id -> complete ordered timeline ($kinds)"
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET /debug/profile?ms=100 HTTP/1.1\r\nconnection: close\r\n\r\n' >&3
  profile_reply=$(cat <&3)
  exec 3<&- 3>&-
  [[ "${profile_reply:0:12}" == "HTTP/1.1 200" ]] \
    || { echo "    GET /debug/profile?ms=100 -> ${profile_reply:0:12} (want 200)"; exit 1; }
  grep -q '"traceEvents"' <<<"$profile_reply" \
    || { echo "    /debug/profile returned no traceEvents array"; exit 1; }
  echo "    GET /debug/profile?ms=100 -> Chrome-trace JSON returned"

  # Slowloris regression: a client trickling one byte at a time must be
  # answered 408 once the 1 s request deadline expires, not held forever.
  trickle_start=$(date +%s)
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  (
    trap '' PIPE
    printf 'G' >&3
    for _ in $(seq 1 6); do sleep 0.3; printf 'E' >&3 2>/dev/null || exit 0; done
  ) || true
  trickle_reply=$(cat <&3 || true)
  exec 3<&- 3>&-
  trickle_s=$(( $(date +%s) - trickle_start ))
  grep -q '^HTTP/1.1 408' <<<"$trickle_reply" || { echo "    trickling client got: ${trickle_reply:0:40} (want 408)"; exit 1; }
  [[ $trickle_s -le 5 ]] || { echo "    trickling client held the server ${trickle_s}s"; exit 1; }
  echo "    trickling client -> 408 after ${trickle_s}s (deadline 1s)"

  # Keep-alive soak against the same booted server: park a crowd of idle
  # connections in the reactor, assert /healthz still answers instantly
  # from a fresh connection, then let serve-bench SIGTERM the server and
  # verify the drain closes every parked connection losslessly (clean
  # EOF, zero stray bytes). The count is derived from `ulimit -n` with
  # headroom for both processes' other fds.
  soak_limit=$(ulimit -n)
  soak=$(( soak_limit / 3 ))
  [[ $soak -gt 800 ]] && soak=800
  [[ $soak -lt 64 ]] && soak=64
  echo "==> keep-alive soak ($soak idle connections, ulimit -n $soak_limit)"
  ./target/release/serve-bench --soak "$soak" --soak-addr "127.0.0.1:$port" --soak-kill "$serve_pid" \
    | sed 's/^/    /'
  wait "$serve_pid"
  trap - EXIT
  rm -f "$serve_log"

  echo "==> serve-bench smoke (writes BENCH_server.json)"
  # The bench itself asserts the keep-alive stage reaches >= 2x the
  # close-per-request throughput on /healthz and that bodies stay
  # bit-identical across 1 vs N server threads.
  ./target/release/serve-bench --requests 600 --clients 4 --threads 4 > /dev/null
  test -s BENCH_server.json
  grep -q '"keepalive_speedup"' BENCH_server.json \
    || { echo "    BENCH_server.json records no keepalive_speedup"; exit 1; }
  echo "    BENCH_server.json written ($(wc -c < BENCH_server.json) bytes, keep-alive >= 2x verified)"

  echo "==> serve-bench --journal (timeline completeness under concurrency)"
  # Boots its own in-process server with the journal armed, drives an
  # 8-thread concurrent keep-alive run, and exits non-zero unless every
  # sampled request reconstructs a complete, ordered, byte-stable
  # timeline and /debug/profile round-trips through dram_units::json.
  ./target/release/serve-bench --journal --clients 8 --threads 8 | sed 's/^/    /'

  echo "==> chaos-bench smoke (seeded faults, writes BENCH_chaos.json)"
  # Fixed seed so the failure schedule (worker kills, build panics, slow
  # reads, short writes, queue rejects) replays identically on every run.
  # chaos-bench exits non-zero if any resilience invariant breaks: a lost
  # or duplicated response, an unaccounted fault, a missing respawn, or a
  # dirty drain.
  ./target/release/chaos-bench --requests 200 --clients 4 --seed 7 > /dev/null
  test -s BENCH_chaos.json
  grep -q '"invariants_hold":true' BENCH_chaos.json \
    || { echo "    BENCH_chaos.json does not report invariants_hold"; exit 1; }
  respawns=$(sed -n 's|.*"worker_respawns":\([0-9]*\).*|\1|p' BENCH_chaos.json)
  [[ -n "$respawns" && "$respawns" -ge 1 ]] \
    || { echo "    chaos run saw no worker respawns (got: ${respawns:-none})"; exit 1; }
  echo "    BENCH_chaos.json written (invariants hold, $respawns worker respawns)"

  echo "==> sweep-bench smoke (differential vs full rebuilds, writes BENCH_sweep.json)"
  # A reduced run of both paths; sweep-bench itself exits non-zero if the
  # differential results are not bit-identical to full rebuilds.
  ./target/release/sweep-bench --quick > /dev/null
  test -s BENCH_sweep.json
  grep -q '"sweep": {.*"bit_identical": true' BENCH_sweep.json \
    || { echo "    differential sweep is not bit-identical"; exit 1; }
  grep -q '"interaction_matrix": {.*"bit_identical": true' BENCH_sweep.json \
    || { echo "    differential interaction matrix is not bit-identical"; exit 1; }
  phases_skipped=$(sed -n 's|.*"phases_skipped": \([0-9]*\).*|\1|p' BENCH_sweep.json)
  [[ -n "$phases_skipped" && "$phases_skipped" -ge 1 ]] \
    || { echo "    differential path skipped no build phases (got: ${phases_skipped:-none})"; exit 1; }
  sweep_speedup=$(sed -n 's|.*"sweep": {.*"speedup": \([0-9.]*\).*|\1|p' BENCH_sweep.json)
  matrix_speedup=$(sed -n 's|.*"interaction_matrix": {.*"speedup": \([0-9.]*\).*|\1|p' BENCH_sweep.json)
  awk -v s="$sweep_speedup" -v m="$matrix_speedup" 'BEGIN { exit !(s >= 1.0 && m >= 1.0) }' \
    || { echo "    differential path is slower than full rebuilds (sweep ${sweep_speedup}x, matrix ${matrix_speedup}x)"; exit 1; }
  echo "    BENCH_sweep.json written (sweep ${sweep_speedup}x, matrix ${matrix_speedup}x, $phases_skipped phases skipped)"

  echo "==> trace-bench smoke (streams 1M commands, writes BENCH_trace.json)"
  # trace-bench boots the server in-process, streams a seeded trace with
  # chunked framing and exits non-zero unless the served report is
  # byte-identical to an in-memory StreamFold of the same bytes and the
  # peak-RSS delta stays bounded (the O(1)-memory claim).
  trace_bench_out=$(./target/release/trace-bench --commands 1000000)
  grep -q 'bit-identical to in-memory fold: yes' <<<"$trace_bench_out" \
    || { echo "    trace-bench did not report bit-identity"; exit 1; }
  test -s BENCH_trace.json
  grep -q '"bit_identical":true' BENCH_trace.json \
    || { echo "    BENCH_trace.json does not record bit_identical"; exit 1; }
  trace_rss=$(sed -n 's|.*"peak_rss_delta_kb":\([0-9]*\).*|\1|p' BENCH_trace.json)
  [[ -n "$trace_rss" && "$trace_rss" -le 262144 ]] \
    || { echo "    trace-bench peak RSS delta ${trace_rss:-unknown} kB exceeds the 256 MiB bound"; exit 1; }
  trace_rate=$(sed -n 's|.*"mb_per_s":\([0-9.]*\).*|\1|p' BENCH_trace.json)
  echo "    BENCH_trace.json written (bit-identical, ${trace_rate:-?} MB/s, peak RSS delta ${trace_rss} kB)"

  echo "==> shard-bench smoke (multi-process pool, writes BENCH_shard.json)"
  # Boots real dram-serve children behind the in-process router, SIGKILLs
  # them on a seeded schedule, and exits non-zero if any request is lost
  # beyond the retry budget, any body diverges from the single-node
  # canon, or the ring's cache-hit rate fails to beat random routing.
  ./target/release/shard-bench --requests 120 --kills 2 --seed 7 > /dev/null
  test -s BENCH_shard.json
  grep -q '"invariants_hold":true' BENCH_shard.json \
    || { echo "    BENCH_shard.json does not report invariants_hold"; exit 1; }
  grep -q '"lost_requests":0' BENCH_shard.json \
    || { echo "    shard run lost requests"; exit 1; }
  shard_failovers=$(sed -n 's|.*"failovers":\([0-9]*\).*|\1|p' BENCH_shard.json)
  [[ -n "$shard_failovers" && "$shard_failovers" -ge 1 ]] \
    || { echo "    shard run recorded no failovers (got: ${shard_failovers:-none})"; exit 1; }
  shard_gain=$(sed -n 's|.*"affinity_gain":\([0-9.]*\).*|\1|p' BENCH_shard.json)
  awk -v g="${shard_gain:-0}" 'BEGIN { exit !(g > 0.05) }' \
    || { echo "    ring routing shows no cache-affinity gain (got: ${shard_gain:-none})"; exit 1; }
  echo "    BENCH_shard.json written ($shard_failovers failovers, affinity gain +$shard_gain, 0 lost)"

  echo "==> dram-route smoke (3-node pool, byte-identity, SIGKILL failover, SIGTERM drain)"
  # Black-box: the shipped binaries only. Boot three dram-serve nodes and
  # a dram-route in front, prove routed bodies match a direct node hit,
  # SIGKILL one node and keep getting 200s while the Prometheus scrape
  # records the failovers, then drain the router cleanly with SIGTERM.
  node_pids=()
  node_ports=()
  node_logs=()
  for _ in 1 2 3; do
    nlog=$(mktemp)
    ./target/release/dram-serve --addr 127.0.0.1:0 --threads 2 --log off > "$nlog" &
    node_pids+=($!)
    node_logs+=("$nlog")
  done
  route_log=$(mktemp)
  trap 'kill -9 "${node_pids[@]}" "${route_pid:-}" 2>/dev/null || true' EXIT
  for nlog in "${node_logs[@]}"; do
    nport=""
    for _ in $(seq 1 100); do
      nport=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$nlog")
      [[ -n "$nport" ]] && break
      sleep 0.1
    done
    [[ -n "$nport" ]] || { echo "    a dram-serve node never reported its port"; exit 1; }
    node_ports+=("$nport")
  done
  ./target/release/dram-route --addr 127.0.0.1:0 --probe-ms 100 --log off \
    --node "127.0.0.1:${node_ports[0]}" --node "127.0.0.1:${node_ports[1]}" \
    --node "127.0.0.1:${node_ports[2]}" > "$route_log" &
  route_pid=$!
  rport=""
  for _ in $(seq 1 100); do
    rport=$(sed -n 's|.*http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$route_log")
    [[ -n "$rport" ]] && break
    sleep 0.1
  done
  [[ -n "$rport" ]] || { echo "    dram-route never reported its port"; exit 1; }
  http() { # port method path body -> full reply on stdout
    local port=$1 method=$2 path=$3 body=$4
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf '%s %s HTTP/1.1\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
      "$method" "$path" "${#body}" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
  }
  eval_body='{"preset":"ddr3_1g_x16_55nm"}'
  direct=$(http "${node_ports[0]}" POST /v1/evaluate "$eval_body")
  routed=$(http "$rport" POST /v1/evaluate "$eval_body")
  [[ "${routed:0:12}" == "HTTP/1.1 200" ]] \
    || { echo "    routed evaluate -> ${routed:0:12} (want 200)"; exit 1; }
  [[ "${direct#*$'\r\n\r\n'}" == "${routed#*$'\r\n\r\n'}" ]] \
    || { echo "    routed body diverges from the direct node hit"; exit 1; }
  echo "    routed /v1/evaluate -> 200, byte-identical to the direct node"
  kill -9 "${node_pids[0]}"
  # 40 distinct keyless requests: the dead node owned ~a third of these
  # slices, so the survivors must absorb them while every reply stays 200.
  for i in $(seq 1 40); do
    reply=$(http "$rport" GET "/v1/presets?i=$i" "")
    [[ "${reply:0:12}" == "HTTP/1.1 200" ]] \
      || { echo "    request $i after SIGKILL -> ${reply:0:12} (want 200)"; exit 1; }
  done
  prom=$(http "$rport" GET '/metrics?format=prometheus' "")
  route_failovers=$(sed -n 's|^dram_route_failovers_total \([0-9]*\)$|\1|p' <<<"$prom")
  [[ -n "$route_failovers" && "$route_failovers" -ge 1 ]] \
    || { echo "    dram_route_failovers_total is ${route_failovers:-absent} (want >= 1)"; exit 1; }
  echo "    SIGKILL node 1 -> 40/40 served, $route_failovers failovers in the scrape"
  kill -TERM "$route_pid"
  wait "$route_pid"
  grep -q 'drained' "$route_log" || { echo "    dram-route did not report a clean drain"; exit 1; }
  kill "${node_pids[1]}" "${node_pids[2]}" 2>/dev/null || true
  wait "${node_pids[1]}" "${node_pids[2]}" 2>/dev/null || true
  trap - EXIT
  rm -f "$route_log" "${node_logs[@]}"
  echo "    SIGTERM -> router drained cleanly"

  echo "==> perfbench (tests, then a 1 s run of each workload)"
  # perfbench is a package of its own, outside the workspace, yet it
  # calls the registry, the engine snapshot and the router's JSON
  # /metrics keys: build and run it here so a change to any of them
  # fails CI, not only the benchmark.
  cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
  for workload in evaluate_warm evaluate_cold trace_stream routed_warm; do
    result=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 1 --trace 0 2>/dev/null | tail -n 1) \
      || { echo "    perfbench $workload exited non-zero"; exit 1; }
    grep -q '"correct":true' <<<"$result" \
      || { echo "    perfbench $workload: oracle failed or no result: $result"; exit 1; }
    echo "    perfbench $workload -> correct"
  done
fi

echo "==> ci.sh: all green"
