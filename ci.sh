#!/usr/bin/env bash
# Local CI: everything a PR must keep green, in dependency order.
#
#   ./ci.sh            full run (build, tests, format, clippy, smokes, perfbench)
#   ./ci.sh --fast     skip the format check, clippy, the smokes and perfbench
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
  echo "==> cargo fmt --check"
  cargo fmt --all -- --check

  echo "==> cargo clippy (deny warnings)"
  cargo clippy --workspace --all-targets --offline -- -D warnings

  echo "==> cargo doc (deny warnings)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

  echo "==> command-line refusals (an unknown flag and a bad number, per binary)"
  # All nine binaries read their flags through one reader
  # (dram_units::cli::Flags): each must exit 2 on an unknown flag and on
  # a bad number, naming what it refused. No failed run exits 2
  # (docs/SERVER.md), so a script can tell the two apart.
  refuse() { # binary message args... — fails unless the binary refuses args with message and exit 2
    local bin=$1 want=$2 err status=0
    shift 2
    err=$(./target/release/"$bin" "$@" 2>&1 >/dev/null) || status=$?
    [[ $status -eq 2 ]] || { echo "    $bin $* exited $status, not 2"; exit 1; }
    grep -qF -- "$want" <<<"$err" || { echo "    $bin $*: no \"$want\" in: $err"; exit 1; }
  }
  for bin in dram-serve dram-route dram-power repro serve-bench chaos-bench shard-bench \
    trace-bench sweep-bench; do
    refuse "$bin" '`--no-such-flag`' --no-such-flag
  done
  refuse dram-serve 'bad thread count `0`' --threads 0
  refuse dram-route 'bad probe interval `x`' --probe-ms x
  refuse dram-power 'bad feature size `x`' --preset x
  refuse repro 'bad thread count `x`' --threads x
  refuse serve-bench 'bad soak connection count `0`' --soak 0
  refuse serve-bench 'bad request count `0`' --requests 0
  refuse serve-bench '--soak needs --soak-addr HOST:PORT' --soak 3
  refuse serve-bench 'bad soak address `nonsense`' --soak 3 --soak-addr nonsense
  refuse serve-bench '--soak-addr needs --soak N' --soak-addr 127.0.0.1:1
  refuse serve-bench '--soak-kill needs --soak N' --soak-kill 1
  refuse serve-bench 'bad pid `x`' --soak 3 --soak-addr 127.0.0.1:1 --soak-kill x
  refuse chaos-bench 'bad request count `10` (minimum 50)' --requests 10
  refuse shard-bench 'bad node count `9` (2..=8)' --nodes 9
  refuse trace-bench 'bad chunk size `3`' --chunk 3
  refuse sweep-bench 'bad thread count `0`' --threads 0
  echo "    9 binaries refused --no-such-flag and a bad number, serve-bench its soak flags apart, with exit 2"
  for bin in dram-serve dram-route dram-power repro serve-bench chaos-bench shard-bench \
    trace-bench sweep-bench; do
    help=$(./target/release/"$bin" --help 2>&1) || { echo "    $bin --help exited non-zero"; exit 1; }
    grep -q 'usage:' <<<"$help" || { echo "    $bin --help printed no usage: $help"; exit 1; }
  done
  echo "    9 binaries answered --help with their usage and exit 0"

  # Every bench writes its file under target/ci (repro --timing writes
  # into its working directory, so it runs there), and no smoke may
  # rewrite a bench file at the root: their checksums are compared after
  # the last smoke.
  bench_out=target/ci
  mkdir -p "$bench_out"
  root_bench_sums=$(sha256sum BENCH_*.json)
  bench_doc() { # file bench — fails unless file is one {"bench","records","values"} document of bench
    grep -q "^{\"bench\":\"$2\",\"records\":\[.*],\"values\":{.*}}$" "$1" \
      || { echo "    $1 is not a $2 bench document"; exit 1; }
  }

  echo "==> repro all --timing smoke (writes $bench_out/BENCH_repro.json)"
  start=$(date +%s)
  (cd "$bench_out" && ../release/repro all --timing > /dev/null)
  echo "    repro all completed in $(( $(date +%s) - start ))s"
  repro_json=$bench_out/BENCH_repro.json
  test -s "$repro_json"
  bench_doc "$repro_json" repro
  echo "    $repro_json written ($(wc -c < "$repro_json") bytes)"

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

  echo "==> dram-power --trace smoke (the /v1/trace grammar through the power-state machine)"
  # A legal act/rd/pre access plus a pde..pdx nap must be priced; an act
  # issued while powered down, a rd under tRCD, an act within tRFC of a
  # ref and an act on an srx's own cycle (inside its exit-latency window)
  # must each exit non-zero naming the violation.
  trace_dir=$(mktemp -d)
  printf '!length 2000\n0 act 0\n12 rd 0\n28 pre 0\n100 pde\n1000 pdx\n' > "$trace_dir/legal.trace"
  printf '!length 2000\n0 pde\n500 act\n1000 pdx\n' > "$trace_dir/asleep.trace"
  printf '0 act 0\n6 rd 0\n28 pre 0\n' > "$trace_dir/trcd.trace"
  printf '0 ref\n1 act 0\n' > "$trace_dir/trfc.trace"
  pileup=$'!policy aggressive\n0 sre\n1000 srx\n1000 act 0\n2000 pre 0\n'
  printf '%s' "$pileup" > "$trace_dir/pileup.trace"
  legal_out=$(./target/release/dram-power --preset 55 --trace "$trace_dir/legal.trace") \
    || { echo "    dram-power rejected a legal trace"; exit 1; }
  legal_line=$(grep "^trace .*: 5 commands over" <<<"$legal_out") \
    || { echo "    dram-power printed no trace line for the legal trace"; exit 1; }
  if asleep_err=$(./target/release/dram-power --preset 55 --trace "$trace_dir/asleep.trace" 2>&1); then
    echo "    dram-power priced an act issued while powered down"; exit 1
  fi
  grep -q 'act at cycle 500 while in precharge_power_down (command_while_asleep)' <<<"$asleep_err" \
    || { echo "    dram-power error does not name the violation: $asleep_err"; exit 1; }
  if trcd_err=$(./target/release/dram-power --preset 55 --trace "$trace_dir/trcd.trace" 2>&1); then
    echo "    dram-power priced a rd issued under tRCD"; exit 1
  fi
  grep -q '(timing)' <<<"$trcd_err" \
    || { echo "    dram-power error does not name the timing violation: $trcd_err"; exit 1; }
  if trfc_err=$(./target/release/dram-power --preset 55 --trace "$trace_dir/trfc.trace" 2>&1); then
    echo "    dram-power priced an act issued within tRFC of a ref"; exit 1
  fi
  grep -q 'line 2: pattern violates timing: tRFC violated at cycle 1 (timing)' <<<"$trfc_err" \
    || { echo "    dram-power error does not name the tRFC violation: $trfc_err"; exit 1; }
  if pileup_err=$(./target/release/dram-power --preset 55 --trace "$trace_dir/pileup.trace" 2>&1); then
    echo "    dram-power priced an act on an srx's own cycle"; exit 1
  fi
  grep -q 'line 4: command at cycle 1000 inside an exit-latency window ending at 1513 (bad_transition)' \
    <<<"$pileup_err" || { echo "    dram-power error does not name the pile-up: $pileup_err"; exit 1; }
  rm -rf "$trace_dir"
  echo "    legal trace priced (${legal_line##*— }); act while powered down, rd under tRCD, act within tRFC and act on an srx's cycle refused"

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

  # A cached model keeps its /v1/evaluate body once it has been hit. Two
  # presets no request above has named: the first POST of each misses
  # and renders, the second hits and is served from the stored body. The
  # two bodies must be the same bytes, and /v1/batch, which renders every
  # item, must return exactly them.
  post_body() { # path body — prints the body of a 200 reply
    local reply
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'POST %s HTTP/1.1\r\ncontent-length: %s\r\nconnection: close\r\n\r\n%s' \
      "$1" "${#2}" "$2" >&3
    reply=$(cat <&3)
    exec 3<&- 3>&-
    [[ "${reply:0:12}" == "HTTP/1.1 200" ]] || { echo "    POST $1 -> ${reply:0:12} (want 200)" >&2; return 1; }
    printf '%s' "${reply#*$'\r\n\r\n'}"
  }
  stored=()
  for preset in sdr_128m_170nm ddr5_16g_18nm; do
    miss=$(post_body /v1/evaluate "{\"preset\":\"$preset\"}") || exit 1
    hit=$(post_body /v1/evaluate "{\"preset\":\"$preset\"}") || exit 1
    [[ "$miss" == "$hit" ]] || { echo "    $preset: the stored body differs from the rendered one"; exit 1; }
    stored+=("$hit")
  done
  batch=$(post_body /v1/batch '{"requests":[{"preset":"sdr_128m_170nm"},{"preset":"ddr5_16g_18nm"}]}') || exit 1
  [[ "$batch" == "{\"count\":2,\"results\":[${stored[0]},${stored[1]}]}" ]] \
    || { echo "    /v1/batch differs from the stored /v1/evaluate bodies: $batch"; exit 1; }
  echo "    POST /v1/evaluate twice per preset -> the same bytes on a miss and a hit, and in /v1/batch"

  # Stream a generated command trace through /v1/trace with chunked
  # transfer-encoding (the one route that folds chunks incrementally).
  # 200 plus a self-refresh breakdown proves the five-state machine ran;
  # the counters must then be visible in the Prometheus scrape below.
  # The trace keeps the preset's bank timing, so dram-power, which also
  # checks it, must price the same file.
  trace_file=$(mktemp)
  {
    printf '!preset ddr3_1g_x16_55nm\n!policy aggressive\n'
    awk 'BEGIN {
      t = 0
      for (i = 0; i < 250; i++) {
        b = i % 8
        printf "%d act %d\n%d rd %d\n%d wr %d\n%d pre %d\n", t, b, t+12, b, t+16, b, t+28, b
        t += 120
      }
      printf "%d pde\n%d pdx\n%d sre\n%d srx\n", t, t+2000, t+4000, t+90000
      printf "!length %d\n", t+100000
    }'
  } > "$trace_file"
  priced=$(./target/release/dram-power --preset 55 --trace "$trace_file" 2>&1) \
    && grep -q ': 1004 commands over' <<<"$priced" \
    || { echo "    dram-power did not price the /v1/trace smoke trace's 1004 commands: $priced"; exit 1; }
  post_trace() { # file [query] — streams it as one chunk per 1000-byte slice, prints the reply
    local file=$1 chunk
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'POST /v1/trace%s HTTP/1.1\r\ntransfer-encoding: chunked\r\nconnection: close\r\n\r\n' "${2:-}" >&3
    split -b 1000 "$file" "$file.chunk."
    for chunk in "$file".chunk.*; do
      [[ -e "$chunk" ]] || continue # an empty file splits into no chunks
      printf '%x\r\n' "$(wc -c < "$chunk")" >&3
      cat "$chunk" >&3
      printf '\r\n' >&3
    done
    printf '0\r\n\r\n' >&3
    cat <&3
    exec 3<&- 3>&-
    rm -f "$file".chunk.*
  }
  trace_reply=$(post_trace "$trace_file")
  [[ "${trace_reply:0:12}" == "HTTP/1.1 200" ]] \
    || { echo "    POST /v1/trace -> ${trace_reply:0:12} (want 200)"; exit 1; }
  grep -q '"commands":1004,' <<<"$trace_reply" \
    || { echo "    /v1/trace reply did not count 1004 commands"; exit 1; }
  grep -q '"self_refresh":{"cycles":' <<<"$trace_reply" \
    || { echo "    /v1/trace reply has no self_refresh breakdown"; exit 1; }
  echo "    POST /v1/trace (chunked) -> 200 (1004 commands, self-refresh billed); dram-power priced it too"
  # The same trace in other spellings the decoder accepts, on every other
  # line, so each chunk alternates between the decoder's single-space
  # branch and its full grammar: upper- and mixed-case mnemonics and
  # aliases on every line, and on the even lines in turn a `+` on the
  # cycle with CRLF, a doubled space, or tab separators with CRLF.
  # Neither reader's figures may change, apart from trace_bytes.
  respelled="$trace_file.respelled"
  awk '{ sub(/ act /, " ACT "); sub(/ pre /, " Precharge "); sub(/ rd /, " READ ")
         sub(/ wr /, " Write ") }
       NR % 2 == 1 { print; next }
       NR / 2 % 3 == 0 { if ($0 ~ /^[0-9]/) $0 = "+" $0; printf "%s\r\n", $0; next }
       NR / 2 % 3 == 1 { sub(/ /, "  "); print; next }
       { gsub(/ /, "\t"); printf "%s\r\n", $0 }' "$trace_file" > "$respelled"
  for spelling in '^+[0-9]' '^[0-9]*  [A-Za-z]' $'\tPrecharge\t' '^[0-9]* ACT [0-9]*$'; do
    grep -q "$spelling" "$respelled" || { echo "    the trace was not respelled ($spelling)"; exit 1; }
  done
  respelled_priced=$(./target/release/dram-power --preset 55 --trace "$respelled" 2>&1) \
    || { echo "    dram-power refused the respelled trace: $respelled_priced"; exit 1; }
  [[ "${respelled_priced//"$respelled"/"$trace_file"}" == "$priced" ]] \
    || { echo "    dram-power priced the respelled trace differently: $respelled_priced"; exit 1; }
  respelled_reply=$(post_trace "$respelled")
  rm -f "$trace_file" "$respelled"
  report() { sed 's/"trace_bytes":[0-9]*,//' <<<"${1#*$'\r\n\r\n'}"; }
  [[ "$(report "$trace_reply")" == "$(report "$respelled_reply")" ]] \
    || { echo "    respelled /v1/trace reply differs: ${respelled_reply##*$'\r\n\r\n'}"; exit 1; }
  echo "    every other line respelled (+cycle, doubled space, tabs, CRLF, ACT/Precharge/READ/Write) -> the same report and dram-power figures"
  # One file through both readers: gen_trace writes the /v1/trace
  # grammar without a !preset, which dram-power prices and the server
  # folds when the query names the device.
  gen_file=$(mktemp)
  cargo run -q --release --offline -p dram-workload --example gen_trace > "$gen_file"
  priced=$(./target/release/dram-power --preset 55 --trace "$gen_file" 2>&1) \
    && grep -q ': 300 commands over' <<<"$priced" \
    || { echo "    dram-power did not price gen_trace's 300 commands: $priced"; exit 1; }
  gen_reply=$(post_trace "$gen_file" '?preset=ddr3_1g_x16_55nm')
  rm -f "$gen_file"
  [[ "${gen_reply:0:12}" == "HTTP/1.1 200" ]] \
    || { echo "    POST gen_trace output -> ${gen_reply:0:12} (want 200): ${gen_reply##*$'\r\n\r\n'}"; exit 1; }
  grep -q '"commands":300,' <<<"$gen_reply" \
    || { echo "    /v1/trace reply did not count gen_trace's 300 commands"; exit 1; }
  echo "    gen_trace output -> dram-power and POST /v1/trace?preset=ddr3_1g_x16_55nm both price 300 commands"
  # Both readers refuse alike: a trace with no command line (syntax, no
  # line) and a !preset after a nop command line (bad_transition, line
  # 2). dram-power names the line as "line N:" and ends with "(kind)";
  # the server's 400 body carries both as fields.
  refused_file=$(mktemp)
  for refused in '' $'0 nop\n!preset ddr3_1g_x16_55nm\n'; do
    printf '%s' "$refused" > "$refused_file"
    if power_err=$(./target/release/dram-power --preset 55 --trace "$refused_file" 2>&1); then
      echo "    dram-power priced a trace /v1/trace refuses: ${refused@Q}"; exit 1
    fi
    power_kind=$(sed -n 's/.*(\([a-z_]*\))$/\1/p' <<<"$power_err")
    power_line=$(sed -n 's/.*: line \([0-9]*\): .*/\1/p' <<<"$power_err")
    refused_reply=$(post_trace "$refused_file" '?preset=ddr3_1g_x16_55nm')
    [[ "${refused_reply:0:12}" == "HTTP/1.1 400" ]] \
      || { echo "    POST ${refused@Q} -> ${refused_reply:0:12} (want 400)"; exit 1; }
    refused_body=${refused_reply#*$'\r\n\r\n'}
    serve_kind=$(sed -n 's/.*"kind":"\([a-z_]*\)".*/\1/p' <<<"$refused_body")
    serve_line=$(sed -n 's/.*"line":\([0-9]*\).*/\1/p' <<<"$refused_body")
    [[ -n "$serve_kind" && "$power_kind" == "$serve_kind" && "${power_line:-0}" == "$serve_line" ]] \
      || { echo "    the readers refuse ${refused@Q} differently: $power_err | $refused_body"; exit 1; }
  done
  rm -f "$refused_file"
  echo "    an empty trace and a !preset after a nop -> both readers refuse with the same kind and line"
  # An act on an srx's own cycle sits inside the exit-latency window: the
  # 400 names the kind and the act's line, as dram-power does above.
  pileup_file=$(mktemp)
  printf '%s' "$pileup" > "$pileup_file"
  pileup_reply=$(post_trace "$pileup_file" '?preset=ddr3_1g_x16_55nm')
  rm -f "$pileup_file"
  [[ "${pileup_reply:0:12}" == "HTTP/1.1 400" ]] \
    || { echo "    POST the srx pile-up -> ${pileup_reply:0:12} (want 400)"; exit 1; }
  grep -q '"kind":"bad_transition","line":4}' <<<"$pileup_reply" \
    || { echo "    the srx pile-up 400 does not name bad_transition at line 4: ${pileup_reply##*$'\r\n\r\n'}"; exit 1; }
  echo "    an act on an srx's own cycle -> 400 bad_transition at line 4"

  # The shipped description as /v1/evaluate text, in two spellings the
  # lexer must read alike: as shipped, and with CRLF line ends, a tab
  # before every key=, µm for um (after a digit and in fF/um) and a
  # trailing `// note` on every line. Quoted text is left alone: a
  # LogicBlock name holds "column", and the Device name is echoed back.
  description=crates/dsl/descriptions/ddr3_1gb_x16_55nm.dram
  description_json() { # file — prints it as the JSON object {"description": ...}
    local text
    text=$(sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\r/\\r/g' -e 's/\t/\\t/g' "$1" \
      | awk '{ printf "%s\\n", $0 }')
    printf '{"description":"%s"}' "$text"
  }
  evaluate_text() { # file — POSTs it as {"description": ...}, prints the reply
    local body len
    body=$(description_json "$1")
    len=$(printf '%s' "$body" | wc -c) # bytes: µ is two
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'POST /v1/evaluate HTTP/1.1\r\ncontent-length: %d\r\nconnection: close\r\n\r\n%s' \
      "$len" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
  }
  respelled_text=$(mktemp)
  sed -E -e 's/ ([A-Za-z][A-Za-z0-9]*=)/\t\1/g' -e 's/([0-9])um/\1µm/g' -e 's|fF/um|fF/µm|g' \
    -e 's|$| // note\r|' "$description" > "$respelled_text"
  grep -q $'\tCWireSignal=0.3fF/µm // note\r$' "$respelled_text" \
    || { echo "    the description was not respelled"; exit 1; }
  shipped_reply=$(evaluate_text "$description")
  respelled_text_reply=$(evaluate_text "$respelled_text")
  rm -f "$respelled_text"
  for reply in "$shipped_reply" "$respelled_text_reply"; do
    [[ "${reply:0:12}" == "HTTP/1.1 200" ]] \
      || { echo "    POST /v1/evaluate (description) -> ${reply%%$'\r\n\r\n'*}"; exit 1; }
  done
  [[ "${shipped_reply#*$'\r\n\r\n'}" == "${respelled_text_reply#*$'\r\n\r\n'}" ]] \
    || { echo "    respelled description evaluates differently: ${respelled_text_reply#*$'\r\n\r\n'}"; exit 1; }
  echo "    POST /v1/evaluate (description as shipped; CRLF, tabs, µm, // notes) -> 200, the same body"
  # The evaluate above moved its parsed description into the model it
  # built; a /v1/batch lends its items' descriptions to the cache
  # instead. Either way the bodies are the one rendering: a batch of the
  # shipped description and a preset is exactly the two bodies
  # /v1/evaluate returned for them.
  batch=$(post_body /v1/batch \
    "{\"requests\":[$(description_json "$description"),{\"preset\":\"sdr_128m_170nm\"}]}") || exit 1
  [[ "$batch" == "{\"count\":2,\"results\":[${shipped_reply#*$'\r\n\r\n'},${stored[0]}]}" ]] \
    || { echo "    /v1/batch (description, preset) differs from their /v1/evaluate bodies: $batch"; exit 1; }
  echo "    POST /v1/batch (shipped description, preset) -> exactly their /v1/evaluate bodies"
  # A description that parses but fails validation, handed to the cache
  # by value, is still filed in the negative cache: POSTed twice it gets
  # the same 400 both times, and the second comes from that cache.
  error_cache_hits() { # prints the engine's negative-cache hit count from /metrics
    local reply
    exec 3<>"/dev/tcp/127.0.0.1/$port"
    printf 'GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n' >&3
    reply=$(cat <&3)
    exec 3<&- 3>&-
    sed -n 's/.*"error_cache_hits":\([0-9]*\).*/\1/p' <<<"$reply"
  }
  invalid_text=$(mktemp)
  sed 's/ bankadd=3 / bankadd=5 /' "$description" > "$invalid_text"
  grep -q ' bankadd=5 ' "$invalid_text" || { echo "    the description was not invalidated"; exit 1; }
  hits_before=$(error_cache_hits)
  first_invalid=$(evaluate_text "$invalid_text")
  second_invalid=$(evaluate_text "$invalid_text")
  hits_after=$(error_cache_hits)
  rm -f "$invalid_text"
  for reply in "$first_invalid" "$second_invalid"; do
    [[ "${reply:0:12}" == "HTTP/1.1 400" ]] \
      || { echo "    POST an invalid description -> ${reply:0:12} (want 400)"; exit 1; }
  done
  invalid_body=${first_invalid#*$'\r\n\r\n'}
  [[ "$invalid_body" == '{"error":"invalid description: '* ]] \
    || { echo "    the invalid description's 400 is not a validation failure: $invalid_body"; exit 1; }
  [[ "${second_invalid#*$'\r\n\r\n'}" == "$invalid_body" ]] \
    || { echo "    the retried invalid description got a different 400: ${second_invalid#*$'\r\n\r\n'}"; exit 1; }
  [[ -n "$hits_before" && "$hits_after" == "$((hits_before + 1))" ]] \
    || { echo "    negative-cache hits went ${hits_before:-?} -> ${hits_after:-?} (want +1)"; exit 1; }
  echo "    POST an invalid description twice -> the same 400, the second from the negative cache"

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

  echo "==> serve-bench smoke (writes $bench_out/BENCH_server.json)"
  # The bench itself asserts the keep-alive stage reaches >= 2x the
  # close-per-request throughput on /healthz and that bodies stay
  # bit-identical across 1 vs N server threads.
  server_json=$bench_out/BENCH_server.json
  ./target/release/serve-bench --requests 600 --clients 4 --threads 4 --out "$server_json" > /dev/null
  bench_doc "$server_json" server
  grep -q '"values":{.*"bit_identical":true' "$server_json" \
    || { echo "    $server_json does not record bit_identical"; exit 1; }
  ka_speedup=$(sed -n 's|.*"values":{.*"keepalive_speedup":\([0-9.]*\).*|\1|p' "$server_json")
  awk -v s="${ka_speedup:-0}" 'BEGIN { exit !(s >= 2.0) }' \
    || { echo "    keep-alive is under 2x close-per-request (got: ${ka_speedup:-none})"; exit 1; }
  printf '    %s written (keep-alive %.1fx at the slower thread count)\n' "$server_json" "$ka_speedup"

  echo "==> serve-bench --journal (timeline completeness under concurrency)"
  # Boots its own in-process server with the journal armed, drives an
  # 8-thread concurrent keep-alive run, and exits non-zero unless every
  # sampled request reconstructs a complete, ordered, byte-stable
  # timeline and /debug/profile round-trips through dram_units::json.
  ./target/release/serve-bench --journal --clients 8 --threads 8 | sed 's/^/    /'
  # Connections outnumbering workers: held and queued requests
  # interleave, and every sampled timeline must still be complete and
  # ordered (accept -> dispatch -> worker_start -> response).
  ./target/release/serve-bench --journal --clients 8 --threads 2 | sed 's/^/    /'

  echo "==> chaos-bench smoke (seeded faults, writes $bench_out/BENCH_chaos.json)"
  # Fixed seed so the failure schedule (worker kills, build panics, slow
  # reads, short writes, queue rejects) replays identically on every run.
  # chaos-bench exits non-zero if any resilience invariant breaks: a lost
  # or duplicated response, an unaccounted fault, a missing respawn, or a
  # dirty drain.
  chaos_json=$bench_out/BENCH_chaos.json
  ./target/release/chaos-bench --requests 200 --clients 4 --seed 7 --out "$chaos_json" > /dev/null
  bench_doc "$chaos_json" chaos
  grep -q '"values":{.*"invariants_hold":true' "$chaos_json" \
    || { echo "    $chaos_json does not report invariants_hold"; exit 1; }
  respawns=$(sed -n 's|.*"values":{.*"worker_respawns":\([0-9]*\).*|\1|p' "$chaos_json")
  [[ -n "$respawns" && "$respawns" -ge 1 ]] \
    || { echo "    chaos run saw no worker respawns (got: ${respawns:-none})"; exit 1; }
  echo "    $chaos_json written (invariants hold, $respawns worker respawns)"

  echo "==> sweep-bench smoke (differential vs full rebuilds, writes $bench_out/BENCH_sweep.json)"
  # A reduced run of both paths, each timed 5 to 9 times; sweep-bench
  # itself exits non-zero if the differential results are not
  # bit-identical to full rebuilds.
  sweep_json=$bench_out/BENCH_sweep.json
  ./target/release/sweep-bench --quick --out "$sweep_json" > /dev/null
  bench_doc "$sweep_json" sweep
  grep -q '"values":{.*"sweep_bit_identical":true' "$sweep_json" \
    || { echo "    differential sweep is not bit-identical"; exit 1; }
  grep -q '"values":{.*"interaction_matrix_bit_identical":true' "$sweep_json" \
    || { echo "    differential interaction matrix is not bit-identical"; exit 1; }
  phases_skipped=$(sed -n 's|.*"values":{.*"phases_skipped":\([0-9]*\).*|\1|p' "$sweep_json")
  [[ -n "$phases_skipped" && "$phases_skipped" -ge 1 ]] \
    || { echo "    differential path skipped no build phases (got: ${phases_skipped:-none})"; exit 1; }
  # Each speedup is the ratio of the two paths' median times, and no
  # record may rest on fewer than 5 samples.
  for record in sweep/full_rebuild sweep/differential interaction_matrix/full_rebuild \
    interaction_matrix/differential; do
    n=$(sed -n "s|.*{\"name\":\"$record\",[^}]*\"n\":\([0-9]*\),.*|\1|p" "$sweep_json")
    [[ -n "$n" && "$n" -ge 5 ]] || { echo "    $record was timed ${n:-no} times (want >= 5)"; exit 1; }
  done
  sweep_speedup=$(sed -n 's|.*"values":{.*"sweep_speedup":\([0-9.]*\).*|\1|p' "$sweep_json")
  matrix_speedup=$(sed -n 's|.*"values":{.*"interaction_matrix_speedup":\([0-9.]*\).*|\1|p' "$sweep_json")
  awk -v s="${sweep_speedup:-0}" -v m="${matrix_speedup:-0}" 'BEGIN { exit !(s >= 1.0 && m >= 1.0) }' \
    || { echo "    differential path is slower than full rebuilds (sweep ${sweep_speedup}x, matrix ${matrix_speedup}x)"; exit 1; }
  printf '    %s written (sweep %.2fx, matrix %.2fx, %s phases skipped)\n' \
    "$sweep_json" "$sweep_speedup" "$matrix_speedup" "$phases_skipped"

  echo "==> trace-bench smoke (streams 1M commands, writes $bench_out/BENCH_trace.json)"
  # trace-bench boots the server in-process, streams a seeded trace with
  # chunked framing and exits non-zero unless the served report is
  # byte-identical to an in-memory StreamFold of the same bytes and the
  # peak-RSS delta stays bounded (the O(1)-memory claim).
  trace_json=$bench_out/BENCH_trace.json
  trace_bench_out=$(./target/release/trace-bench --commands 1000000 --out "$trace_json")
  grep -q 'bit-identical to in-memory fold: yes' <<<"$trace_bench_out" \
    || { echo "    trace-bench did not report bit-identity"; exit 1; }
  bench_doc "$trace_json" trace
  grep -q '"values":{.*"bit_identical":true' "$trace_json" \
    || { echo "    $trace_json does not record bit_identical"; exit 1; }
  record_median() { # file name unit — the median of the record name, in unit
    sed -n "s|.*{\"name\":\"$2\",\"unit\":\"$3\",[^}]*\"median\":\([0-9.]*\),.*|\1|p" "$1"
  }
  trace_rss=$(record_median "$trace_json" peak_rss_delta kB)
  [[ "$trace_rss" =~ ^[0-9]+$ && "$trace_rss" -le 262144 ]] \
    || { echo "    trace-bench peak RSS delta ${trace_rss:-unknown} kB exceeds the 256 MiB bound"; exit 1; }
  trace_rate=$(record_median "$trace_json" ingest_rate MB/s)
  printf '    %s written (bit-identical, %.1f MB/s, peak RSS delta %s kB)\n' \
    "$trace_json" "${trace_rate:-0}" "$trace_rss"

  echo "==> shard-bench smoke (multi-process pool, writes $bench_out/BENCH_shard.json)"
  # Boots real dram-serve children behind the in-process router, SIGKILLs
  # them on a seeded schedule, and exits non-zero if any request is lost
  # beyond the retry budget, any body diverges from the single-node
  # canon, or the ring's cache-hit rate fails to beat random routing.
  shard_json=$bench_out/BENCH_shard.json
  ./target/release/shard-bench --requests 120 --kills 2 --seed 7 --out "$shard_json" > /dev/null
  bench_doc "$shard_json" shard
  grep -q '"values":{.*"invariants_hold":true' "$shard_json" \
    || { echo "    $shard_json does not report invariants_hold"; exit 1; }
  grep -q '"values":{.*"lost_requests":0,' "$shard_json" \
    || { echo "    shard run lost requests"; exit 1; }
  shard_failovers=$(sed -n 's|.*"values":{.*"failovers":\([0-9]*\).*|\1|p' "$shard_json")
  [[ -n "$shard_failovers" && "$shard_failovers" -ge 1 ]] \
    || { echo "    shard run recorded no failovers (got: ${shard_failovers:-none})"; exit 1; }
  shard_gain=$(sed -n 's|.*"values":{.*"affinity_gain":\([0-9.]*\).*|\1|p' "$shard_json")
  awk -v g="${shard_gain:-0}" 'BEGIN { exit !(g > 0.05) }' \
    || { echo "    ring routing shows no cache-affinity gain (got: ${shard_gain:-none})"; exit 1; }
  echo "    $shard_json written ($shard_failovers failovers, affinity gain +$shard_gain, 0 lost)"

  echo "==> dram-route smoke (3-node pool, byte-identity, SIGKILL failover, idle soak, SIGTERM drain)"
  # Black-box: the shipped binaries only. Boot three dram-serve nodes and
  # a dram-route in front, prove routed bodies match a direct node hit,
  # SIGKILL one node and keep getting 200s while the Prometheus scrape
  # records the failovers, then park the keep-alive soak's idle clients
  # on the router and drain it cleanly with SIGTERM.
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
  # The relay rewrites only hop-by-hop fields: the routed head carries the
  # direct one's status line and fields, apart from the request id.
  head_fields() { # reply -> status line, then its fields sorted, request id dropped
    local head=${1%%$'\r\n\r\n'*}
    head=${head//$'\r'/}
    sed -n 1p <<<"$head"
    sed 1d <<<"$head" | grep -v '^x-request-id:' | sort
  }
  [[ "$(head_fields "$direct")" == "$(head_fields "$routed")" ]] \
    || { echo "    routed head diverges from the direct node hit:"; head_fields "$routed"; exit 1; }
  echo "    routed /v1/evaluate -> 200, byte-identical body and matching head to the direct node"
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
  ./target/release/serve-bench --soak "$soak" --soak-addr "127.0.0.1:$rport" --soak-kill "$route_pid" \
    | sed 's/^/    /'
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

  echo "==> model bench (one run: every timed leg and the text-to-build ratios)"
  # Clippy compiles the benches; this runs one, so its expects execute.
  # It passes when the run finishes: a CI host is too noisy to gate on
  # a ratio.
  cargo bench -p dram-bench --bench model --offline 2>/dev/null | sed 's/^/    /'

  echo "==> bench files at the root unchanged by the smokes"
  sha256sum --quiet -c <<<"$root_bench_sums" \
    || { echo "    a smoke rewrote a bench file at the root"; exit 1; }
  echo "    $(wc -l <<<"$root_bench_sums") files checked"
fi

echo "==> ci.sh: all green"
