#!/usr/bin/env bash
# Tier-1 gate: build, full test suite, lints, and the thread-count
# determinism check. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== thread-count determinism =="
cargo test -q --test determinism

echo "== chaos suite at 1 and 4 workers =="
VISIONSIM_THREADS=1 cargo test -q --test fault_injection
VISIONSIM_THREADS=4 cargo test -q --test fault_injection
VISIONSIM_THREADS=1 cargo test -q -p visionsim-experiments resilience
VISIONSIM_THREADS=4 cargo test -q -p visionsim-experiments resilience

echo "== sanitizer explicitly on and off =="
# Debug tests default the sanitizer on; exercise both explicit settings on
# the crates that carry check sites (core, net) and the hostile decoders
# (the compress hostility and property suites and the mesh and semantic
# codecs' property suites live in the root package).
VISIONSIM_SANITIZE=1 cargo test -q -p visionsim-core -p visionsim-net -p visionsim-compress -p visionsim-mesh
VISIONSIM_SANITIZE=1 cargo test -q --test compress_hostility
VISIONSIM_SANITIZE=1 cargo test -q --test compress_prop --test mesh_prop --test semantic_prop
# The event queue's oracle and the datapath suites in an optimized build,
# whose sanitizer default is off, with the queue's monotonicity and
# occupancy checks and the per-link conservation check on.
VISIONSIM_SANITIZE=1 cargo test -q --release --test core_prop --test batch_equiv --test net_prop
VISIONSIM_SANITIZE=0 cargo test -q -p visionsim-core -p visionsim-net

echo "== allocation gate: sanitizer on and off =="
# The counting-allocator budgets must hold in both modes — the sanitizer's
# own bookkeeping is not allowed to leak allocations into the datapath.
VISIONSIM_SANITIZE=1 cargo test -q --release --test alloc_gate
VISIONSIM_SANITIZE=0 cargo test -q --release --test alloc_gate

echo "== allocation gate: flight recorder on and off =="
# Same budgets with the trace ring and metrics registry live: recording is
# preallocated-ring + atomics and must not put mallocs on the hot path.
VISIONSIM_TRACE=1 VISIONSIM_METRICS=1 cargo test -q --release --test alloc_gate
VISIONSIM_TRACE=0 VISIONSIM_METRICS=0 cargo test -q --release --test alloc_gate

echo "== closed-loop congestion: conservation + convergence smoke =="
# The token-bucket shaper must conserve bytes (offered == sent + dropped)
# in release builds too, and the AIMD loop must converge to fair shares
# with receiver-visible drops.
cargo test -q --release --test shaper_conservation
cargo test -q --release -p visionsim-experiments congestion

echo "== failover storms: control-plane resilience =="
# Storm drills with the sanitizer on: the participant-conservation
# identity (attached + reconnecting + abandoned == joined) is checked
# every simulated second in all four scenarios, plus thread-invariance
# of the storms artifact.
VISIONSIM_SANITIZE=1 cargo test -q --release -p visionsim-experiments storms
# The staggered-ServerDown regression (single-slot overwrite bug) and
# the initiator-anchored single failover, under the sanitizer.
VISIONSIM_SANITIZE=1 cargo test -q --release -p visionsim-vca --lib \
  staggered_server_down_faults_reattach_both_cohorts
VISIONSIM_SANITIZE=1 cargo test -q --release -p visionsim-vca --lib \
  server_down_moves_the_call_to_the_initiators_next_nearest_site
# Failover property suite: candidate selection never hands out a dead or
# breaker-open site, and reconnect backoff schedules are byte-identical
# across thread counts.
cargo test -q --release --test failover_props

echo "== sharded fleet: causality + shard-count invariance =="
# The conservative-PDES engine steps every shard on the calling thread,
# so the shard partition is its only layout choice and must change no
# output: the rendered fleet artifact is byte-identical at 1/2/8 shards,
# the engine's token-ring tests keep their event order at any partition,
# and every cross-shard envelope respects the lookahead
# (sanitizer-checked). The engine's own tests live in fleet_props.
VISIONSIM_SANITIZE=1 cargo test -q --release --test fleet_props
VISIONSIM_SANITIZE=1 cargo test -q --release -p visionsim-vca --lib fleet
cargo test -q --release -p visionsim-experiments fleet

echo "== fleet artifact: --only + manifest/checksum/resume =="
FLEETDIR=$(mktemp -d)
VISIONSIM_ARTIFACT_DIR="$FLEETDIR" ./target/release/regenerate 2024 --only fleet > /dev/null
test -f "$FLEETDIR/fleet.txt" || { echo "fleet artifact was not written" >&2; exit 1; }
grep -q '"fleet"' "$FLEETDIR/manifest.json" || { echo "manifest lacks the fleet entry" >&2; exit 1; }
grep -q 'peak concurrency' "$FLEETDIR/fleet.txt" || { echo "fleet artifact lacks the concurrency summary" >&2; exit 1; }
# A resumed run must verify the checksum and skip the finished artifact.
# (Captured, not piped: `grep -q` would close the pipe early and the
# writer's SIGPIPE would trip pipefail.)
RESUME_OUT=$(VISIONSIM_ARTIFACT_DIR="$FLEETDIR" ./target/release/regenerate 2024 --only fleet --resume)
echo "$RESUME_OUT" | grep -q 'fleet.*verified' \
  || { echo "resume did not verify the fleet checksum" >&2; exit 1; }
rm -rf "$FLEETDIR"

echo "== bench smoke + regression gate (packet_path, event_queue, fleet, codecs) =="
# Quick passes (few samples) to catch bit-rot in the bench harness and
# gross regressions; results go to scratch files so the committed
# BENCH.json numbers (full 10-sample runs) are not overwritten. Some
# kernels read in one of two modes from one bench process to the next
# (lzma_like/compress_keypoint_frame about 38-44 or 51-61 us, the slow
# mode being what it reads while another hardware thread keeps its core
# busy; fleet/barrier_rounds about 27-34 or 48-56 us), so a single draw
# against the committed figure fails at random. Each bench therefore runs in
# SMOKE_DRAWS separate processes, the targets interleaved, and the gate
# takes each entry's median per_sec over the draws: an entry whose median
# lands more than 25% below its committed per_sec fails. Entries without
# per_sec (wall-clock trajectory records like regenerate/wall) are
# informational and skip the gate.
SMOKE_DRAWS=5
BENCHDIR=$(mktemp -d)
for draw in $(seq 1 "$SMOKE_DRAWS"); do
  for bench in packet_path event_queue fleet codecs; do
    VISIONSIM_BENCH_SAMPLES=3 VISIONSIM_BENCH_JSON="$BENCHDIR/draw$draw.json" \
      cargo bench -p visionsim-bench --bench "$bench"
  done
done
grep -q '"packet_path/hops"' "$BENCHDIR/draw1.json" || { echo "bench smoke wrote no hops record" >&2; exit 1; }
grep -q '"event_queue/hold"' "$BENCHDIR/draw1.json" || { echo "bench smoke wrote no event queue record" >&2; exit 1; }
grep -q '"fleet/sessions_per_sec"' "$BENCHDIR/draw1.json" || { echo "bench smoke wrote no fleet record" >&2; exit 1; }
grep -q '"semantic/decode_frame"' "$BENCHDIR/draw1.json" || { echo "bench smoke wrote no codec record" >&2; exit 1; }
python3 - BENCH.json "$BENCHDIR"/draw*.json <<'PY'
import json, statistics, sys
committed = json.load(open(sys.argv[1]))
draws = [json.load(open(p)) for p in sys.argv[2:]]
bad = []
for name, entry in sorted(committed.items()):
    per_sec = entry.get("per_sec")
    if per_sec is None:
        continue  # wall-clock trajectory entries are not throughput-gated
    got = [d[name]["per_sec"] for d in draws if name in d]
    if not got:
        continue  # recorded by another run (e.g. regenerate/wall)
    median = statistics.median(got)
    floor = per_sec * 0.75
    status = "ok" if median >= floor else "REGRESSED"
    print(f"  {name}: median {median:.4g}/s of {len(got)} draws "
          f"({min(got):.4g}-{max(got):.4g}) vs committed {per_sec:.4g}/s ({status})")
    if median < floor:
        bad.append(name)
if bad:
    sys.exit(f"bench regression gate: {', '.join(bad)} fell >25% below BENCH.json")
PY
rm -rf "$BENCHDIR"

echo "== supervised regenerate: quarantine + resume smoke =="
ARTDIR=$(mktemp -d)
# An injected panic must quarantine one artifact, let the rest finish,
# and exit non-zero with a summary naming the artifact, its seed and its
# panic message. The output is captured and fed to grep as a here-string,
# not piped: `grep -q` would close the pipe early and the writer's
# SIGPIPE would trip pipefail.
if FAIL_OUT=$(VISIONSIM_ARTIFACT_DIR="$ARTDIR" VISIONSIM_FAIL_ARTIFACT=figure5 \
   ./target/release/regenerate 2024); then
  echo "regenerate should exit non-zero when an artifact is quarantined" >&2
  exit 1
fi
grep -q '^artifacts: 16 written, 0 resumed, 1 failed$' <<< "$FAIL_OUT" \
  || { echo "summary does not report exactly one failed artifact" >&2; exit 1; }
grep -Eq '^  figure5 +2024 +injected failure via VISIONSIM_FAIL_ARTIFACT=figure5$' <<< "$FAIL_OUT" \
  || { echo "summary does not name figure5, seed 2024 and its panic message" >&2; exit 1; }
test ! -f "$ARTDIR/figure5.txt" || { echo "quarantined artifact was written" >&2; exit 1; }
test -f "$ARTDIR/table1.txt" || { echo "surviving artifacts were not written" >&2; exit 1; }
test -f "$ARTDIR/manifest.json" || { echo "manifest missing after failure" >&2; exit 1; }
# --resume must complete only the missing artifact from the manifest.
VISIONSIM_ARTIFACT_DIR="$ARTDIR" ./target/release/regenerate 2024 --resume > /dev/null
test -f "$ARTDIR/figure5.txt" || { echo "resume did not regenerate the failed artifact" >&2; exit 1; }
# The directory now holds every seed-2024 artifact (16 from the failed
# run, figure5 from --resume); each must match the committed file byte
# for byte.
PINNED=0
for committed in artifacts/*.txt; do
  name=$(basename "$committed")
  cmp "$committed" "$ARTDIR/$name" \
    || { echo "$name differs from the committed artifact or is missing" >&2; exit 1; }
  PINNED=$((PINNED + 1))
done
test "$PINNED" -eq 17 || { echo "expected 17 committed artifacts, found $PINNED" >&2; exit 1; }
rm -rf "$ARTDIR"

echo "== flight recorder smoke: trace + metrics sidecars and dump =="
TRACEDIR=$(mktemp -d)
# One fast artifact that drives real packets (Table 1 probes the network),
# with the recorder on: both sidecars must land next to the artifact.
VISIONSIM_ARTIFACT_DIR="$TRACEDIR" VISIONSIM_TRACE=1 VISIONSIM_METRICS=1 \
  ./target/release/regenerate 2024 --only table1 > /dev/null
test -f "$TRACEDIR/table1.metrics.json" || { echo "metrics sidecar missing" >&2; exit 1; }
test -f "$TRACEDIR/table1.trace.bin" || { echo "trace sidecar missing" >&2; exit 1; }
grep -q '"net/link_bytes_sent"' "$TRACEDIR/table1.metrics.json" \
  || { echo "metrics sidecar lacks the per-link byte counters" >&2; exit 1; }
# The dump must decode the image and show the datapath events.
./target/release/trace_dump "$TRACEDIR/table1.trace.bin" | grep -q 'packet_send' \
  || { echo "trace dump shows no packet_send events" >&2; exit 1; }
rm -rf "$TRACEDIR"

echo "== serve: live control plane + Prometheus scrape + trace tail =="
SERVEDIR=$(mktemp -d)
# Boot the service on auto-assigned ports at 50x speed with a wall-clock
# rail so a wedged run cannot hang CI; parse the ports from the banner.
./target/release/visionsim serve --speed 50 --pacing-ms 5 \
  --trace "$SERVEDIR/live.trace.bin" --run-secs 60 > "$SERVEDIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^serve control=' "$SERVEDIR/serve.log" 2>/dev/null && break
  sleep 0.1
done
CTL=$(sed -n 's/^serve control=\([^ ]*\).*/\1/p' "$SERVEDIR/serve.log")
METRICS=$(sed -n 's/^serve.*metrics=\([^ ]*\).*/\1/p' "$SERVEDIR/serve.log")
test -n "$CTL" && test -n "$METRICS" \
  || { echo "serve did not print its addresses" >&2; kill $SERVE_PID; exit 1; }
V=./target/release/visionsim
# Drive the wire protocol: join both presets, let sessions run, inject a
# fault, then leave one and snapshot. Replies are asserted to be "ok ...".
$V ctl "$CTL" join mixed 2 2024 300 | grep -q '^ok join 0' \
  || { echo "serve: join mixed failed" >&2; kill $SERVE_PID; exit 1; }
$V ctl "$CTL" join facetime 3 2024 300 | grep -q '^ok join 1' \
  || { echo "serve: join facetime failed" >&2; kill $SERVE_PID; exit 1; }
sleep 2
$V ctl "$CTL" fault 0 1 burst-loss | grep -q '^ok fault' \
  || { echo "serve: fault injection failed" >&2; kill $SERVE_PID; exit 1; }
$V ctl "$CTL" snapshot | grep -q '"sanitizer_violations":0' \
  || { echo "serve: snapshot reports sanitizer violations" >&2; kill $SERVE_PID; exit 1; }
# A misspelled command must come back as a protocol error, not a hang.
# `ctl` exits 1 on an `err` reply, which pipefail would surface even
# though grep matches — the `|| true` keeps only grep's verdict.
($V ctl "$CTL" jion mixed 2 1 5 2>/dev/null || true) | grep -q '^err ' \
  || { echo "serve: bad command did not yield err" >&2; kill $SERVE_PID; exit 1; }
# A roster past the session port plan must be refused, not built.
($V ctl "$CTL" join facetime 100000 1 5 2>/dev/null || true) | grep -q '^err ' \
  || { echo "serve: oversized join did not yield err" >&2; kill $SERVE_PID; exit 1; }
# Prometheus: the scrape must parse as text exposition format and carry
# the Sim-class datapath series.
SCRAPE=$($V scrape "$METRICS")
echo "$SCRAPE" | grep -q '^# TYPE visionsim_net_link_bytes_sent counter' \
  || { echo "scrape lacks the link byte counter" >&2; kill $SERVE_PID; exit 1; }
echo "$SCRAPE" | python3 -c '
import re, sys
typed = set()
for line in sys.stdin:
    line = line.rstrip("\n")
    if not line:
        continue
    m = re.match(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$", line)
    if m:
        typed.add(m.group(1))
        continue
    m = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+)$", line)
    if not m:
        sys.exit(f"unparseable exposition line: {line!r}")
    base = re.sub(r"_(bucket|sum|count)$", "", m.group(1))
    if m.group(1) not in typed and base not in typed:
        sys.exit(f"sample before its TYPE line: {line!r}")
print(f"  exposition ok: {len(typed)} metric families")
' || { kill $SERVE_PID; exit 1; }
# The live trace sidecar must be tailable while the service runs.
./target/release/trace_dump --follow --polls 2 --interval-ms 200 \
  "$SERVEDIR/live.trace.bin" | grep -q 'packet_send' \
  || { echo "trace_dump --follow shows no datapath events" >&2; kill $SERVE_PID; exit 1; }
# Graceful drain and shutdown; the process must exit on its own.
$V ctl "$CTL" quiesce | grep -q '^ok quiesce' \
  || { echo "serve: quiesce failed" >&2; kill $SERVE_PID; exit 1; }
$V ctl "$CTL" shutdown | grep -q '^ok shutdown' \
  || { echo "serve: shutdown failed" >&2; kill $SERVE_PID; exit 1; }
wait $SERVE_PID || { echo "serve exited non-zero" >&2; exit 1; }
rm -rf "$SERVEDIR"

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "ci: all green"
