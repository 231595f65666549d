#!/usr/bin/env bash
# Replay-parity smoke: a WorkloadProvider stream rendered by tacc_workload
# must replay cleanly against a live taccd — every wire line answered OK
# (any NOT_FOUND/BAD_REQUEST means the adapter's slot mirror diverged from
# the daemon's real allocator) — and the response transcript must be
# byte-identical:
#   1. across two fresh daemons (same shard count): accepted/completed
#      counts match run over run;
#   2. across shard counts (--shards=1 vs --shards=4): the replayed stream
#      interleaves two sessions that hash to different shards, so their
#      requests complete on different worker pools in nondeterministic
#      order — the per-connection response sequencer must still deliver
#      replies strictly in request order, or the transcripts diverge;
#   3. against the committed golden tests/data/taccd_replay.golden: the
#      LINK_* replies carry affected=/saved= from the incremental tree
#      repair, so a change to repair order or tie-breaks shows here. On a
#      mismatch the actual transcript is written to
#      $TEST_TMPDIR/taccd_replay.actual (default /tmp/) for a diff; copy it
#      over the golden only for a deliberate change in replies.
#
#   taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>
set -euo pipefail

TACCD=${1:?usage: taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>}
CLIENT=${2:?usage: taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>}
WORKLOAD=${3:?usage: taccd_replay_smoke.sh <taccd> <tacc_client> <tacc_workload>}

GOLDEN="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/tests/data/taccd_replay.golden"

WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/taccd_replay_XXXXXX")
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

SPEC="steady,link_rate=0.5"
GEN_ARGS=(--workload="$SPEC" --events=400 --iot=60 --edge=8 --seed=77)

# The generator itself must be deterministic before replay parity means
# anything.
"$WORKLOAD" "${GEN_ARGS[@]}" > "$WORKDIR/stream_a.txt"
"$WORKLOAD" "${GEN_ARGS[@]}" > "$WORKDIR/stream_b.txt"
cmp -s "$WORKDIR/stream_a.txt" "$WORKDIR/stream_b.txt" \
  || { echo "FAIL: tacc_workload output differs across identical runs"; exit 1; }

# Second session with its own stream, then interleave the two line-by-line:
# the pipelined replay now alternates between sessions on one connection.
"$WORKLOAD" --workload="$SPEC" --events=400 --iot=60 --edge=8 --seed=78 \
            --session=wl2 > "$WORKDIR/stream_c.txt"
paste -d'\n' "$WORKDIR/stream_a.txt" "$WORKDIR/stream_c.txt" \
  | grep -v '^$' > "$WORKDIR/interleaved.txt"

replay() { # replay <transcript-out> <shards>
  local out=$1
  local shards=$2
  local sock
  sock=$(mktemp -u "$WORKDIR/taccd_XXXXXX.sock")
  # Pipelined replay submits the whole stream before reading responses, so
  # the admission queue must hold it all — backpressure is m3's concern.
  "$TACCD" --socket="$sock" --shards="$shards" --threads=2 \
           --timeout-ms=60000 --max-queue=8192 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$sock" ] && break
    sleep 0.1
  done
  [ -S "$sock" ] || { echo "FAIL: daemon never bound $sock"; exit 1; }

  local rc=0
  "$CLIENT" --socket="$sock" --stdin < "$WORKDIR/interleaved.txt" > "$out" \
    || rc=$?
  # Exit 0 = every request answered OK. 3 would mean ERR responses (a slot
  # mirror or legality bug); anything else is a transport failure.
  [ "$rc" -eq 0 ] || { echo "FAIL: replay client exited $rc (want 0: all OK)"; exit 1; }

  kill -TERM "$DAEMON_PID"
  local drc=0
  wait "$DAEMON_PID" || drc=$?
  DAEMON_PID=""
  [ "$drc" -eq 0 ] || { echo "FAIL: taccd exited $drc on SIGTERM"; exit 1; }
}

replay "$WORKDIR/replay_1.txt" 1
replay "$WORKDIR/replay_2.txt" 1
replay "$WORKDIR/replay_s4.txt" 4

LINES=$(wc -l < "$WORKDIR/interleaved.txt")
RESPONSES=$(wc -l < "$WORKDIR/replay_1.txt")
[ "$RESPONSES" -eq "$LINES" ] \
  || { echo "FAIL: $LINES requests but $RESPONSES responses"; exit 1; }

cmp -s "$WORKDIR/replay_1.txt" "$WORKDIR/replay_2.txt" \
  || { echo "FAIL: replay transcripts differ between fresh daemons"; exit 1; }

cmp -s "$WORKDIR/replay_1.txt" "$WORKDIR/replay_s4.txt" \
  || { echo "FAIL: transcripts differ between --shards=1 and --shards=4 (response ordering broke)"; exit 1; }

if ! cmp -s "$WORKDIR/replay_1.txt" "$GOLDEN"; then
  ACTUAL="${TEST_TMPDIR:-/tmp}/taccd_replay.actual"
  cp "$WORKDIR/replay_1.txt" "$ACTUAL"
  echo "FAIL: transcript differs from $GOLDEN (actual written to $ACTUAL)"
  diff "$GOLDEN" "$ACTUAL" | head -20 || true
  exit 1
fi

echo "taccd replay smoke passed: $LINES requests ($SPEC, 2 sessions), all OK, transcripts identical at 1 and 4 shards and to the golden"
