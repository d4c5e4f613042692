#!/usr/bin/env bash
# End-to-end checkpoint/resume: kill -9 a journaled sword-offline analysis
# mid-flight, resume it, and check the resumed report is BYTE-identical to an
# uninterrupted run's - alone and composed with --shards 2 (one journal per
# shard). If the machine is fast enough that the analysis finishes before the
# signal lands, resume degenerates to a full replay, which must still match.
#
# usage: e2e_kill_resume.sh <tool-bin-dir>
set -u

BIN="${1:?usage: e2e_kill_resume.sh <tool-bin-dir>}"
RUN="$BIN/sword-run"
OFFLINE="$BIN/sword-offline"
for t in "$RUN" "$OFFLINE"; do
  [ -x "$t" ] || { echo "missing tool: $t"; exit 1; }
done

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

# kill_and_resume <journal-file> <ref-report> <resumed-report> [shard flags...]
kill_and_resume() {
  journal="$1" ref="$2" resumed="$3"
  shift 3

  "$OFFLINE" "$DIR" "$@" > "$ref" 2>/dev/null
  ref_rc=$?
  if [ "$ref_rc" -ne 0 ] && [ "$ref_rc" -ne 2 ]; then
    echo "FAIL: reference analysis: want exit 0 or 2, got $ref_rc"
    exit 1
  fi

  # Journaled run, SIGKILLed once checkpoints start landing. A record torn
  # by the kill must be dropped on resume, never replayed.
  "$OFFLINE" "$DIR" --journal "$@" >/dev/null 2>&1 &
  pid=$!
  for _ in $(seq 1 200); do
    [ -f "$DIR/$journal" ] && break
    sleep 0.02
  done
  sleep 0.2
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null
  [ -s "$DIR/$journal" ] || { echo "FAIL: no journal at $DIR/$journal"; exit 1; }

  "$OFFLINE" "$DIR" --resume "$@" > "$resumed" 2>/dev/null
  res_rc=$?
  if [ "$res_rc" -ne "$ref_rc" ]; then
    echo "FAIL: resume exit $res_rc != reference exit $ref_rc"
    exit 1
  fi
  if ! cmp -s "$ref" "$resumed"; then
    echo "FAIL: resumed report differs from uninterrupted report"
    diff "$ref" "$resumed" | head -20
    exit 1
  fi
}

# check_format <format>: trace LULESH to completion in that format, then
# kill and resume the whole-trace analysis and each of two shards. LULESH
# has ~360 top-level regions = 360 checkpoint units. The default format
# (v3) is what production writes; its coalesced trace analyzes in tens of
# milliseconds, so the kill may land after the analysis ended. Format 2 logs
# one event per access, so its analysis runs long enough to be killed
# mid-flight and resumed from a partial journal.
check_format() {
  rm -rf "${DIR:?}"/*
  "$RUN" --suite hpc --name LULESH --tool sword --threads 4 \
         --trace-dir "$DIR" --format "$1" >/dev/null 2>&1 \
    || { echo "FAIL: format $1 tracing run did not complete"; exit 1; }
  [ -s "$DIR/sword_t0.log" ] || { echo "FAIL: format $1: no trace produced"; exit 1; }

  # Whole-trace analysis.
  kill_and_resume sword_analysis_0of1.journal "$DIR/ref.txt" "$DIR/resumed.txt"

  # Composed with sharding: each shard keeps - and resumes from - its own
  # journal, keyed into the filename.
  for shard in 0 1; do
    kill_and_resume "sword_analysis_${shard}of2.journal" \
                    "$DIR/ref_s$shard.txt" "$DIR/resumed_s$shard.txt" \
                    --shard "$shard" --shards 2
  done
}

check_format 3
check_format 2

echo "e2e kill+resume: OK"
