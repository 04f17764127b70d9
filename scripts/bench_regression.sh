#!/usr/bin/env bash
# Bench-regression smoke: run the hot-path benchmarks at a short
# -benchtime and fail on allocs/op regressions. Wall-clock on the shared
# 1-CPU CI runner is too noisy to gate on, but allocation counts are exact
# and deterministic, so this catches the classic regression class (a
# closure or interface box sneaking into the access path or the run loop)
# without flaky thresholds.
#
#   BenchmarkAccessPath/*  must stay at exactly 0 allocs/op (SoA contract)
#   BenchmarkChipRun       must stay under CHIPRUN_ALLOC_CEILING allocs/op
#     (fast-forward seeding allocates once per run; measured 773 since
#      FastForward shares one scratch across its tiles, 1356 before and
#      3286 before the UMON shadow stacks became one growable slab per
#      monitor; the ceiling keeps the old ~13% headroom for counted-but-
#      benign drift)
#   BenchmarkFastForward16 must stay under FASTFORWARD16_BYTES_CEILING B/op
#     (a 16-core FastForward at the default warmup measured 1.29 MB with one
#      hot-line scratch per call; rebuilding hot lists, the dedupe set and
#      the placement array per tile measured 11.4 MB; the ceiling is about
#      1.3x the measurement)
#   BenchmarkChipNew       must stay under CHIPNEW_BYTES_CEILING B/op (a
#     64-core chip.New measured 18.21 MB once only LLC banks store owners
#     and sharers, the sharers packed to the core count; it was 23.96 MB
#     with four words per line in every cache and 73.8 MB while every UMON
#     stack was provisioned at full depth up front, so eagerly sized
#     per-tile state fails here; the ceiling is about 1.3x the measurement)
#   BenchmarkChipNew16     must stay under CHIPNEW16_BYTES_CEILING B/op (a
#     16-core chip.New measured 3.72 MB, 5.94 MB with four words per line
#     in every cache; the ceiling is about 1.3x the measurement)
#   BenchmarkChipNewReleased16 must stay under CHIPNEWREL16_BYTES_CEILING
#     B/op (a 16-core chip.New followed by Release, the free list stocked
#     beforehand, measured 0.10 MB: only the state outside the recycled
#     cache and UMON arrays; a lost Release or a free list that stops
#     recycling puts it back near ChipNew16's 3.72 MB)
#   BenchmarkSnapshotCodec/capture must stay under SNAPCAPTURE_BYTES_CEILING
#     B/op (a steady-state 16-core auto-checkpoint, timed after the first
#     capture that follows an escape, measured 26 KB: it rewrites the one
#     checkpoint buffer in place; keeping a second buffer measured 4.96 MB)
#   BenchmarkSnapshotCodec/decode must stay under SNAPDECODE_ALLOC_CEILING
#     allocs/op (the canonical parser on a 16-core churn checkpoint measured
#     3033; the encoding/json fallback allocates about 12850, so a snapshot
#     that silently stops taking the fast path fails here instead of only
#     slowing down)
set -euo pipefail
cd "$(dirname "$0")/.."

CHIPRUN_ALLOC_CEILING=880
FASTFORWARD16_BYTES_CEILING=1700000
SNAPCAPTURE_BYTES_CEILING=40000
CHIPNEW_BYTES_CEILING=23700000
CHIPNEW16_BYTES_CEILING=4850000
CHIPNEWREL16_BYTES_CEILING=400000
SNAPDECODE_ALLOC_CEILING=4500

# AccessPath iterates per memory reference (~300ns each): 10000x is
# milliseconds. ChipRun iterates whole runs (~200ms each): keep it at 1x.
ap=$(go test -run '^$' -bench 'BenchmarkAccessPath' -benchtime 10000x ./internal/chip)
cr=$(go test -run '^$' -bench 'BenchmarkChipRun$' -benchtime 1x ./internal/chip)
ff=$(go test -run '^$' -bench 'BenchmarkFastForward16$' -benchtime 3x ./internal/chip)
# ChipNew builds a 64-core chip (~10-25ms each), ChipNew16 a 16-core one,
# ChipNewReleased16 a 16-core one it then releases.
cn=$(go test -run '^$' -bench 'BenchmarkChipNew(16|Released16)?$' -benchtime 3x ./internal/chip)
sc=$(go test -run '^$' -bench 'BenchmarkSnapshotCodec/(capture|decode)$' -benchtime 5x .)
out=$(printf '%s\n%s\n%s\n%s\n%s\n' "${ap}" "${cr}" "${ff}" "${cn}" "${sc}")
echo "${out}"

FAIL=0
while read -r name _ _ _ bytes _ allocs _; do
  case "${name}" in
  BenchmarkAccessPath/*)
    if [ "${allocs}" != "0" ]; then
      echo "FAIL: ${name} allocates ${allocs} allocs/op, want 0" >&2
      FAIL=1
    fi
    ;;
  BenchmarkChipRun | BenchmarkChipRun-*)
    if [ "${allocs}" -gt "${CHIPRUN_ALLOC_CEILING}" ]; then
      echo "FAIL: ${name} allocates ${allocs} allocs/op, ceiling ${CHIPRUN_ALLOC_CEILING}" >&2
      FAIL=1
    fi
    ;;
  BenchmarkFastForward16 | BenchmarkFastForward16-*)
    if [ "${bytes}" -gt "${FASTFORWARD16_BYTES_CEILING}" ]; then
      echo "FAIL: ${name} allocates ${bytes} B/op, ceiling ${FASTFORWARD16_BYTES_CEILING}" >&2
      FAIL=1
    fi
    ;;
  BenchmarkChipNew | BenchmarkChipNew-*)
    if [ "${bytes}" -gt "${CHIPNEW_BYTES_CEILING}" ]; then
      echo "FAIL: ${name} allocates ${bytes} B/op, ceiling ${CHIPNEW_BYTES_CEILING}" >&2
      FAIL=1
    fi
    ;;
  BenchmarkChipNew16 | BenchmarkChipNew16-*)
    if [ "${bytes}" -gt "${CHIPNEW16_BYTES_CEILING}" ]; then
      echo "FAIL: ${name} allocates ${bytes} B/op, ceiling ${CHIPNEW16_BYTES_CEILING}" >&2
      FAIL=1
    fi
    ;;
  BenchmarkChipNewReleased16 | BenchmarkChipNewReleased16-*)
    if [ "${bytes}" -gt "${CHIPNEWREL16_BYTES_CEILING}" ]; then
      echo "FAIL: ${name} allocates ${bytes} B/op, ceiling ${CHIPNEWREL16_BYTES_CEILING}" >&2
      FAIL=1
    fi
    ;;
  BenchmarkSnapshotCodec/capture | BenchmarkSnapshotCodec/capture-*)
    if [ "${bytes}" -gt "${SNAPCAPTURE_BYTES_CEILING}" ]; then
      echo "FAIL: ${name} allocates ${bytes} B/op, ceiling ${SNAPCAPTURE_BYTES_CEILING}" >&2
      FAIL=1
    fi
    ;;
  BenchmarkSnapshotCodec/decode | BenchmarkSnapshotCodec/decode-*)
    if [ "${allocs}" -gt "${SNAPDECODE_ALLOC_CEILING}" ]; then
      echo "FAIL: ${name} allocates ${allocs} allocs/op, ceiling ${SNAPDECODE_ALLOC_CEILING}" >&2
      FAIL=1
    fi
    ;;
  esac
done < <(echo "${out}" | grep -E '^Benchmark')

# The parse above must have actually seen every benchmark; an empty run
# passing silently would defeat the lane.
echo "${out}" | grep -q '^BenchmarkAccessPath/' || { echo "FAIL: AccessPath did not run" >&2; FAIL=1; }
echo "${out}" | grep -qE '^BenchmarkChipRun(-[0-9]+)?[[:space:]]' || { echo "FAIL: ChipRun did not run" >&2; FAIL=1; }
echo "${out}" | grep -qE '^BenchmarkFastForward16(-[0-9]+)?[[:space:]]' || { echo "FAIL: FastForward16 did not run" >&2; FAIL=1; }
echo "${out}" | grep -qE '^BenchmarkChipNew(-[0-9]+)?[[:space:]]' || { echo "FAIL: ChipNew did not run" >&2; FAIL=1; }
echo "${out}" | grep -qE '^BenchmarkChipNew16(-[0-9]+)?[[:space:]]' || { echo "FAIL: ChipNew16 did not run" >&2; FAIL=1; }
echo "${out}" | grep -qE '^BenchmarkChipNewReleased16(-[0-9]+)?[[:space:]]' || { echo "FAIL: ChipNewReleased16 did not run" >&2; FAIL=1; }
echo "${out}" | grep -qE '^BenchmarkSnapshotCodec/capture(-[0-9]+)?[[:space:]]' || { echo "FAIL: SnapshotCodec/capture did not run" >&2; FAIL=1; }
echo "${out}" | grep -qE '^BenchmarkSnapshotCodec/decode(-[0-9]+)?[[:space:]]' || { echo "FAIL: SnapshotCodec/decode did not run" >&2; FAIL=1; }

[ "${FAIL}" -eq 0 ] || exit 1
echo "bench regression smoke: OK"
