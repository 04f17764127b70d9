#!/usr/bin/env bash
# Service smoke test: build delta-served, boot it on a random port, check
# /healthz, submit one tiny simulation, poll it to completion, assert the
# result, then SIGTERM and assert a clean drain + exit. Run from the repo
# root; CI runs it after the unit tests.
set -euo pipefail

PORT=$((20000 + RANDOM % 20000))
ADDR="127.0.0.1:${PORT}"
BIN="$(mktemp -d)/delta-served"
LOG="$(mktemp)"

cleanup() {
  [ -n "${SRV_PID:-}" ] && kill -9 "${SRV_PID}" 2>/dev/null || true
  rm -f "${LOG}"
}
trap cleanup EXIT

echo "== build"
go build -o "${BIN}" ./cmd/delta-served
"${BIN}" -version

echo "== start on ${ADDR}"
"${BIN}" -addr "${ADDR}" -workers 2 -queue-depth 8 -job-timeout 60s >"${LOG}" 2>&1 &
SRV_PID=$!

for i in $(seq 1 50); do
  if curl -sf "http://${ADDR}/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "${SRV_PID}" 2>/dev/null; then
    echo "server died during startup:"; cat "${LOG}"; exit 1
  fi
  sleep 0.2
done

echo "== healthz"
HEALTH=$(curl -sf "http://${ADDR}/healthz")
echo "${HEALTH}"
echo "${HEALTH}" | grep -q '"status":"ok"'
echo "${HEALTH}" | grep -q '"version"'

echo "== readyz"
curl -sf "http://${ADDR}/readyz" | grep -q ok

echo "== submit a tiny simulation"
SUBMIT=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' \
  -d '{"policy":"snuca","cores":4,"apps":["mcf"],"warmup_instructions":4000,"budget_instructions":4000}')
echo "${SUBMIT}"
ID=$(echo "${SUBMIT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "${ID}" ] || { echo "no job id in submit response"; exit 1; }

echo "== poll ${ID}"
for i in $(seq 1 100); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${ID}")
  case "${JOB}" in
    *'"status":"done"'*) break ;;
    *'"status":"failed"'*|*'"status":"canceled"'*) echo "job ended badly: ${JOB}"; exit 1 ;;
  esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"done"' || { echo "job never finished: ${JOB}"; exit 1; }
echo "${JOB}" | grep -q '"geomean_ipc"'

echo "== duplicate submission hits the cache"
DUP=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' \
  -d '{"policy":"snuca","cores":4,"apps":["mcf"],"warmup_instructions":4000,"budget_instructions":4000}')
echo "${DUP}" | grep -q '"deduped":true'

echo "== metrics exposition"
METRICS=$(curl -sf "http://${ADDR}/metrics")
echo "${METRICS}" | grep -q '^served_simulations_executed 1$'
echo "${METRICS}" | grep -q '^served_jobs_completed 1$'

echo "== SIGTERM drains cleanly"
kill -TERM "${SRV_PID}"
EXIT_CODE=0
for i in $(seq 1 100); do
  if ! kill -0 "${SRV_PID}" 2>/dev/null; then break; fi
  sleep 0.2
done
if kill -0 "${SRV_PID}" 2>/dev/null; then
  echo "server did not exit after SIGTERM:"; cat "${LOG}"; exit 1
fi
wait "${SRV_PID}" || EXIT_CODE=$?
[ "${EXIT_CODE}" -eq 0 ] || { echo "server exited ${EXIT_CODE}:"; cat "${LOG}"; exit 1; }
grep -q "drained" "${LOG}"
SRV_PID=""

# --- checkpoint/restore lane -------------------------------------------------
# Submit a longer job against a checkpoint-enabled server, suspend it
# mid-run, kill the server, restart it over the same checkpoint directory,
# resubmit to resume, and require the resumed result to be byte-equal to an
# uninterrupted reference run (after stripping wall-clock fields).

CKPT_DIR="$(mktemp -d)"
LOG2="$(mktemp)"
cleanup2() {
  [ -n "${SRV_PID:-}" ] && kill -9 "${SRV_PID}" 2>/dev/null || true
  rm -f "${LOG}" "${LOG2}"
  rm -rf "${CKPT_DIR}"
}
trap cleanup2 EXIT

# Medium-sized job: long enough to still be running when we suspend it.
CKPT_REQ='{"policy":"snuca","cores":4,"apps":["mcf"],"warmup_instructions":10000,"budget_instructions":1000000}'

strip_elapsed() {
  # elapsed_ms is wall-clock, the only legitimately nondeterministic field.
  sed 's/"elapsed_ms":[0-9]*/"elapsed_ms":0/'
}

start_server() {
  "${BIN}" -addr "${ADDR}" -workers 2 -queue-depth 8 -job-timeout 120s \
    -checkpoint-dir "${CKPT_DIR}" >"$1" 2>&1 &
  SRV_PID=$!
  for i in $(seq 1 50); do
    if curl -sf "http://${ADDR}/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "${SRV_PID}" 2>/dev/null; then
      echo "server died during startup:"; cat "$1"; return 1
    fi
    sleep 0.2
  done
  echo "server never became healthy"; return 1
}

echo "== checkpoint lane: reference run"
start_server "${LOG2}"
REF_SUBMIT=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${CKPT_REQ}")
REF_ID=$(echo "${REF_SUBMIT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "${REF_ID}" ] || { echo "no job id: ${REF_SUBMIT}"; exit 1; }
for i in $(seq 1 300); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${REF_ID}")
  case "${JOB}" in *'"status":"done"'*) break ;; esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"done"' || { echo "reference never finished: ${JOB}"; exit 1; }
REF_RESULT=$(echo "${JOB}" | strip_elapsed)
kill -TERM "${SRV_PID}"; wait "${SRV_PID}" || true; SRV_PID=""
rm -f "${CKPT_DIR}"/*.ckpt.json 2>/dev/null || true

echo "== checkpoint lane: submit, suspend mid-run"
start_server "${LOG2}"
SUBMIT=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${CKPT_REQ}")
ID=$(echo "${SUBMIT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ "${ID}" = "${REF_ID}" ] || { echo "content address changed: ${ID} vs ${REF_ID}"; exit 1; }
for i in $(seq 1 100); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${ID}")
  case "${JOB}" in *'"status":"running"'*) break ;; esac
  sleep 0.1
done
echo "${JOB}" | grep -q '"status":"running"' || { echo "job never started: ${JOB}"; exit 1; }
curl -sf -X POST "http://${ADDR}/v1/simulations/${ID}:suspend" >/dev/null
for i in $(seq 1 100); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${ID}")
  case "${JOB}" in *'"status":"suspended"'*) break ;; esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"suspended"' || { echo "job never suspended: ${JOB}"; exit 1; }
[ -f "${CKPT_DIR}/${ID}.ckpt.json" ] || { echo "no checkpoint file on disk"; exit 1; }

echo "== checkpoint lane: kill server, restart over the same directory"
kill -TERM "${SRV_PID}"
for i in $(seq 1 100); do
  if ! kill -0 "${SRV_PID}" 2>/dev/null; then break; fi
  sleep 0.2
done
wait "${SRV_PID}" || true
SRV_PID=""
start_server "${LOG2}"

echo "== checkpoint lane: resubmit resumes from the checkpoint"
RESUME=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${CKPT_REQ}")
echo "${RESUME}"
echo "${RESUME}" | grep -q '"resumed":true' || { echo "resubmission did not resume"; exit 1; }
for i in $(seq 1 300); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${ID}")
  case "${JOB}" in
    *'"status":"done"'*) break ;;
    *'"status":"failed"'*|*'"status":"canceled"'*) echo "resumed job ended badly: ${JOB}"; exit 1 ;;
  esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"done"' || { echo "resumed job never finished: ${JOB}"; exit 1; }
if echo "${JOB}" | grep -q '"partial":true'; then
  echo "resumed result is partial: ${JOB}"; exit 1
fi

echo "== checkpoint lane: resumed result is byte-equal to the reference"
RESUMED_RESULT=$(echo "${JOB}" | strip_elapsed)
if [ "${RESUMED_RESULT}" != "${REF_RESULT}" ]; then
  echo "resumed result diverged from reference:"
  echo "  ref:     ${REF_RESULT}"
  echo "  resumed: ${RESUMED_RESULT}"
  exit 1
fi
if [ -f "${CKPT_DIR}/${ID}.ckpt.json" ]; then
  echo "checkpoint not cleaned up"; exit 1
fi

kill -TERM "${SRV_PID}"; wait "${SRV_PID}" || true; SRV_PID=""

# --- scenario lane -----------------------------------------------------------
# Submit a dynamic-scenario job (phase storm, departures, an arrival by app
# short code, a migration, a spike), suspend it mid-storm, restart the server,
# resume by content address, and require byte-equality with an uninterrupted
# reference run. The scenario must also fork the content address of the
# otherwise identical checkpoint-lane request, and an invalid scenario must
# be a structured 400.

SC_REQ='{"policy":"snuca","cores":4,"apps":["mcf"],"warmup_instructions":10000,"budget_instructions":1000000,"scenario":{"schema_version":1,"name":"smoke-churn","events":[{"at_quantum":2,"kind":"storm","rate_percent":200,"duration_quanta":200},{"at_quantum":20,"kind":"depart","core":3},{"at_quantum":40,"kind":"arrive","core":3,"app":"om"},{"at_quantum":50,"kind":"depart","core":1},{"at_quantum":60,"kind":"migrate","from":2,"to":1},{"at_quantum":80,"kind":"spike","core":0,"rate_percent":50,"duration_quanta":20}]}}'
BAD_SC_REQ='{"policy":"snuca","cores":4,"apps":["mcf"],"scenario":{"schema_version":1,"events":[{"at_quantum":1,"kind":"arrive","core":0,"app":"mcf"}]}}'

echo "== scenario lane: reference run"
start_server "${LOG2}"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${BAD_SC_REQ}")
[ "${CODE}" = "400" ] || { echo "invalid scenario answered ${CODE}, want 400"; exit 1; }
curl -s -X POST "http://${ADDR}/v1/simulations" -H 'Content-Type: application/json' \
  -d "${BAD_SC_REQ}" | grep -q 'invalid_config' || { echo "invalid scenario lacks invalid_config code"; exit 1; }
SC_SUBMIT=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${SC_REQ}")
SC_ID=$(echo "${SC_SUBMIT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "${SC_ID}" ] || { echo "no job id: ${SC_SUBMIT}"; exit 1; }
[ "${SC_ID}" != "${REF_ID}" ] || { echo "scenario did not fork the content address"; exit 1; }
for i in $(seq 1 300); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${SC_ID}")
  case "${JOB}" in *'"status":"done"'*) break ;; esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"done"' || { echo "scenario reference never finished: ${JOB}"; exit 1; }
SC_REF_RESULT=$(echo "${JOB}" | strip_elapsed)
kill -TERM "${SRV_PID}"; wait "${SRV_PID}" || true; SRV_PID=""
rm -f "${CKPT_DIR}"/*.ckpt.json 2>/dev/null || true

echo "== scenario lane: submit, suspend mid-storm, restart, resume"
start_server "${LOG2}"
SC_SUBMIT=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${SC_REQ}")
echo "${SC_SUBMIT}" | grep -q "\"id\":\"${SC_ID}\"" || { echo "scenario content address drifted: ${SC_SUBMIT}"; exit 1; }
for i in $(seq 1 100); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${SC_ID}")
  case "${JOB}" in *'"status":"running"'*) break ;; esac
  sleep 0.1
done
echo "${JOB}" | grep -q '"status":"running"' || { echo "scenario job never started: ${JOB}"; exit 1; }
curl -sf -X POST "http://${ADDR}/v1/simulations/${SC_ID}:suspend" >/dev/null
for i in $(seq 1 100); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${SC_ID}")
  case "${JOB}" in *'"status":"suspended"'*) break ;; esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"suspended"' || { echo "scenario job never suspended: ${JOB}"; exit 1; }
[ -f "${CKPT_DIR}/${SC_ID}.ckpt.json" ] || { echo "no scenario checkpoint on disk"; exit 1; }
kill -TERM "${SRV_PID}"
for i in $(seq 1 100); do
  if ! kill -0 "${SRV_PID}" 2>/dev/null; then break; fi
  sleep 0.2
done
wait "${SRV_PID}" || true
SRV_PID=""
start_server "${LOG2}"
RESUME=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${SC_REQ}")
echo "${RESUME}" | grep -q '"resumed":true' || { echo "scenario resubmission did not resume: ${RESUME}"; exit 1; }
for i in $(seq 1 300); do
  JOB=$(curl -sf "http://${ADDR}/v1/simulations/${SC_ID}")
  case "${JOB}" in
    *'"status":"done"'*) break ;;
    *'"status":"failed"'*|*'"status":"canceled"'*) echo "resumed scenario job ended badly: ${JOB}"; exit 1 ;;
  esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"done"' || { echo "resumed scenario job never finished: ${JOB}"; exit 1; }

echo "== scenario lane: resumed result is byte-equal to the reference"
SC_RESUMED_RESULT=$(echo "${JOB}" | strip_elapsed)
if [ "${SC_RESUMED_RESULT}" != "${SC_REF_RESULT}" ]; then
  echo "resumed scenario result diverged from reference:"
  echo "  ref:     ${SC_REF_RESULT}"
  echo "  resumed: ${SC_RESUMED_RESULT}"
  exit 1
fi

kill -TERM "${SRV_PID}"; wait "${SRV_PID}" || true; SRV_PID=""

# --- telemetry lane ----------------------------------------------------------
# Run two jobs against a telemetry-enabled server, range-query the columnar
# segments over HTTP, restart the server and require the identical bytes,
# then merge the two jobs' segment directories with delta-trace and require
# ordered, byte-stable output.

TEL_DIR="$(mktemp -d)"
TRACE_BIN="$(dirname "${BIN}")/delta-trace"
cleanup3() {
  [ -n "${SRV_PID:-}" ] && kill -9 "${SRV_PID}" 2>/dev/null || true
  rm -f "${LOG}" "${LOG2}"
  rm -rf "${CKPT_DIR}" "${TEL_DIR}"
}
trap cleanup3 EXIT

go build -o "${TRACE_BIN}" ./cmd/delta-trace

start_tel_server() { # $1 = log file; further arguments go to the server
  "${BIN}" -addr "${ADDR}" -workers 2 -queue-depth 8 -job-timeout 60s \
    -telemetry-dir "${TEL_DIR}" "${@:2}" >"$1" 2>&1 &
  SRV_PID=$!
  for i in $(seq 1 50); do
    if curl -sf "http://${ADDR}/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "${SRV_PID}" 2>/dev/null; then
      echo "server died during startup:"; cat "$1"; return 1
    fi
    sleep 0.2
  done
  echo "server never became healthy"; return 1
}

run_job() { # $1 = request JSON; prints the finished job's id
  local SUBMIT ID JOB i
  SUBMIT=$(curl -sf -X POST "http://${ADDR}/v1/simulations" \
    -H 'Content-Type: application/json' -d "$1")
  ID=$(echo "${SUBMIT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
  [ -n "${ID}" ] || { echo "no job id: ${SUBMIT}" >&2; return 1; }
  for i in $(seq 1 200); do
    JOB=$(curl -sf "http://${ADDR}/v1/simulations/${ID}")
    case "${JOB}" in *'"status":"done"'*) break ;; esac
    sleep 0.2
  done
  echo "${JOB}" | grep -q '"status":"done"' || { echo "job never finished: ${JOB}" >&2; return 1; }
  echo "${ID}"
}

echo "== telemetry lane: run two jobs with the segment sink"
start_tel_server "${LOG2}"
TID1=$(run_job '{"policy":"snuca","cores":4,"apps":["mcf"],"warmup_instructions":4000,"budget_instructions":4000,"seed":1}')
TID2=$(run_job '{"policy":"delta","cores":4,"apps":["mcf"],"warmup_instructions":4000,"budget_instructions":4000,"seed":2}')
[ -d "${TEL_DIR}/${TID1}" ] || { echo "no segment directory for ${TID1}"; exit 1; }
[ -d "${TEL_DIR}/${TID2}" ] || { echo "no segment directory for ${TID2}"; exit 1; }

echo "== telemetry lane: range query"
TEL_Q="from=0&to=4000000000&res=1"
ROWS=$(curl -sf "http://${ADDR}/v1/simulations/${TID1}/telemetry?${TEL_Q}")
[ -n "${ROWS}" ] || { echo "empty telemetry stream for a completed job"; exit 1; }
echo "${ROWS}" | head -n 1 | grep -q '"cycle"' || { echo "rows do not look like samples: $(echo "${ROWS}" | head -n 1)"; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://${ADDR}/v1/simulations/${TID1}/telemetry?res=7")
[ "${CODE}" = "400" ] || { echo "invalid resolution answered ${CODE}, want 400"; exit 1; }

echo "== telemetry lane: restart server, identical bytes from disk"
kill -TERM "${SRV_PID}"; wait "${SRV_PID}" || true; SRV_PID=""
start_tel_server "${LOG2}"
ROWS_AFTER=$(curl -sf "http://${ADDR}/v1/simulations/${TID1}/telemetry?${TEL_Q}")
if [ "${ROWS}" != "${ROWS_AFTER}" ]; then
  echo "telemetry diverged across restart"; exit 1
fi
kill -TERM "${SRV_PID}"; wait "${SRV_PID}" || true; SRV_PID=""

echo "== telemetry lane: delta-trace merge across job directories"
MERGED=$("${TRACE_BIN}" merge "${TEL_DIR}/${TID1}" "${TEL_DIR}/${TID2}")
[ -n "${MERGED}" ] || { echo "merge produced nothing"; exit 1; }
echo "${MERGED}" | grep -q "\"job\":\"${TID1}\"" || { echo "job ${TID1} missing from merge"; exit 1; }
echo "${MERGED}" | grep -q "\"job\":\"${TID2}\"" || { echo "job ${TID2} missing from merge"; exit 1; }
# Ordered by (job, cycle): project the sort key and let sort -c verify it
# (tags are empty for single-chip jobs; ties within a cycle are tile order).
echo "${MERGED}" \
  | sed -n 's/.*"job":"\([^"]*\)".*"cycle":\([0-9]*\).*/\1 \2/p' \
  | LC_ALL=C sort -s -c -k1,1 -k2,2n || { echo "merge output out of order"; exit 1; }
MERGED2=$("${TRACE_BIN}" merge "${TEL_DIR}/${TID1}" "${TEL_DIR}/${TID2}")
if [ "${MERGED}" != "${MERGED2}" ]; then
  echo "merge re-decode is not byte-stable"; exit 1
fi

# --- JSONL sink lane ---------------------------------------------------------
# Run one DELTA job against a server with the -jsonl sink and stop it with
# SIGTERM, which flushes the sink. Every line must parse; every event and
# sample must carry the job id as its "tag", and the job's counters must be
# named "<job id>.<name>".

JSONL_FILE="${TEL_DIR}/t.jsonl"
echo "== jsonl lane: one delta job with the -jsonl sink"
start_tel_server "${LOG2}" -jsonl "${JSONL_FILE}"
JID=$(run_job '{"policy":"delta","cores":4,"apps":["mcf","lbm","povray","omnetpp"],"warmup_instructions":4000,"budget_instructions":40000,"seed":3}')
kill -TERM "${SRV_PID}"
EXIT_CODE=0
wait "${SRV_PID}" || EXIT_CODE=$?
SRV_PID=""
[ "${EXIT_CODE}" -eq 0 ] || { echo "server exited ${EXIT_CODE}:"; cat "${LOG2}"; exit 1; }

echo "== jsonl lane: every line parses, records carry the job id"
[ -s "${JSONL_FILE}" ] || { echo "empty -jsonl file"; exit 1; }
jq -c . "${JSONL_FILE}" >/dev/null || { echo "-jsonl file has a line that does not parse"; exit 1; }
TAGS=$(jq -r 'select(.kind != "counter" and .kind != "gauge") | .tag' "${JSONL_FILE}" | sort -u)
[ "${TAGS}" = "${JID}" ] || { echo "events and samples carry tags '${TAGS}', want '${JID}'"; exit 1; }
jq -se --arg id "${JID}" 'any(.[]; .kind == "challenge" and .tag == $id)' "${JSONL_FILE}" >/dev/null \
  || { echo "no challenge event tagged ${JID}"; exit 1; }
jq -se --arg n "${JID}.chip.llc_accesses" 'any(.[]; .kind == "counter" and .name == $n)' "${JSONL_FILE}" >/dev/null \
  || { echo "no counter named ${JID}.chip.llc_accesses"; exit 1; }

# --- fabric lane -------------------------------------------------------------
# Boot a coordinator over two workers, batch-submit four jobs (one duplicate,
# one long enough to interrupt), kill the worker that owns the long job
# mid-run, and require: all four NDJSON results arrive, the duplicate cost no
# extra simulation, the rebalanced job's result is byte-equal to an
# uninterrupted reference run, and the coordinator long-polled job status
# (about one request per job per -health-every, not one per -poll-every).

COORD_BIN="$(dirname "${BIN}")/delta-coord"
W1_PORT=$((20000 + RANDOM % 20000)); W1_ADDR="127.0.0.1:${W1_PORT}"
W2_PORT=$((20000 + RANDOM % 20000)); W2_ADDR="127.0.0.1:${W2_PORT}"
REF_PORT=$((20000 + RANDOM % 20000)); REF_ADDR="127.0.0.1:${REF_PORT}"
CO_PORT=$((20000 + RANDOM % 20000)); CO_ADDR="127.0.0.1:${CO_PORT}"
FAB_DIR="$(mktemp -d)"
W1_LOG="$(mktemp)"; W2_LOG="$(mktemp)"; CO_LOG="$(mktemp)"; BATCH_OUT="$(mktemp)"
cleanup4() {
  for P in "${SRV_PID:-}" "${W1_PID:-}" "${W2_PID:-}" "${REF_PID:-}" "${CO_PID:-}"; do
    [ -n "${P}" ] && kill -9 "${P}" 2>/dev/null || true
  done
  rm -f "${LOG}" "${LOG2}" "${W1_LOG}" "${W2_LOG}" "${CO_LOG}" "${BATCH_OUT}"
  rm -rf "${CKPT_DIR}" "${TEL_DIR}" "${FAB_DIR}"
}
trap cleanup4 EXIT

go build -o "${COORD_BIN}" ./cmd/delta-coord
"${COORD_BIN}" -version

wait_healthy() { # $1 = addr, $2 = pid, $3 = log
  local i
  for i in $(seq 1 50); do
    if curl -sf "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$2" 2>/dev/null; then echo "process on $1 died:"; cat "$3"; return 1; fi
    sleep 0.2
  done
  echo "process on $1 never became healthy"; return 1
}

LONG_REQ='{"policy":"snuca","cores":4,"apps":["mcf"],"warmup_instructions":10000,"budget_instructions":1000000,"seed":5}'
QUICK_A='{"policy":"snuca","cores":4,"apps":["mcf"],"warmup_instructions":4000,"budget_instructions":4000,"seed":6}'
QUICK_B='{"policy":"delta","cores":4,"apps":["mcf"],"warmup_instructions":4000,"budget_instructions":4000,"seed":7}'

echo "== fabric lane: uninterrupted reference run"
"${BIN}" -addr "${REF_ADDR}" -workers 2 -queue-depth 8 -job-timeout 120s >/dev/null 2>&1 &
REF_PID=$!
wait_healthy "${REF_ADDR}" "${REF_PID}" /dev/null
REF_SUBMIT=$(curl -sf -X POST "http://${REF_ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${LONG_REQ}")
LONG_ID=$(echo "${REF_SUBMIT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "${LONG_ID}" ] || { echo "no job id: ${REF_SUBMIT}"; exit 1; }
for i in $(seq 1 300); do
  JOB=$(curl -sf "http://${REF_ADDR}/v1/simulations/${LONG_ID}")
  case "${JOB}" in *'"status":"done"'*) break ;; esac
  sleep 0.2
done
echo "${JOB}" | grep -q '"status":"done"' || { echo "reference never finished: ${JOB}"; exit 1; }
REF_RESULT=$(echo "${JOB}" | sed -n 's/.*"result"://p' | strip_elapsed)
kill -TERM "${REF_PID}"; wait "${REF_PID}" || true; REF_PID=""

echo "== fabric lane: start two workers and the coordinator"
"${BIN}" -addr "${W1_ADDR}" -workers 2 -queue-depth 16 -job-timeout 120s \
  -checkpoint-dir "${FAB_DIR}/w1-ckpt" >"${W1_LOG}" 2>&1 &
W1_PID=$!
"${BIN}" -addr "${W2_ADDR}" -workers 2 -queue-depth 16 -job-timeout 120s \
  -checkpoint-dir "${FAB_DIR}/w2-ckpt" >"${W2_LOG}" 2>&1 &
W2_PID=$!
wait_healthy "${W1_ADDR}" "${W1_PID}" "${W1_LOG}"
wait_healthy "${W2_ADDR}" "${W2_PID}" "${W2_LOG}"
"${COORD_BIN}" -addr "${CO_ADDR}" -fleet "http://${W1_ADDR},http://${W2_ADDR}" \
  -result-dir "${FAB_DIR}/results" -health-every 100ms -health-fail-after 2 \
  -poll-every 25ms >"${CO_LOG}" 2>&1 &
CO_PID=$!
wait_healthy "${CO_ADDR}" "${CO_PID}" "${CO_LOG}"
curl -sf "http://${CO_ADDR}/v1/fleet" | grep -q "http://${W2_ADDR}"

echo "== fabric lane: batch-submit 4 jobs (1 duplicate, 1 long)"
BATCH_START=${SECONDS}
curl -sf -X POST "http://${CO_ADDR}/v1/batch" -H 'Content-Type: application/json' \
  -d "{\"jobs\":[${LONG_REQ},${QUICK_A},${QUICK_B},${QUICK_A}]}" >"${BATCH_OUT}" &
BATCH_PID=$!

echo "== fabric lane: kill the long job's worker mid-run"
for i in $(seq 1 100); do
  JOB=$(curl -sf "http://${CO_ADDR}/v1/simulations/${LONG_ID}" || true)
  case "${JOB}" in *'"status":"running"'*) break ;; esac
  sleep 0.1
done
echo "${JOB}" | grep -q '"status":"running"' || { echo "long job never started: ${JOB}"; exit 1; }
# The quick jobs settle almost immediately, so the long job's worker is the
# one with in-flight work in the fleet document.
OWNER=$(curl -sf "http://${CO_ADDR}/v1/fleet" | tr '}' '\n' | grep '"jobs":[1-9]' \
  | sed -n 's/.*"url":"\([^"]*\)".*/\1/p' | head -n 1)
[ -n "${OWNER}" ] || { echo "could not locate the long job's worker"; exit 1; }
case "${OWNER}" in
  *"${W1_ADDR}"*) VICTIM_PID=${W1_PID}; W1_PID="" ;;
  *"${W2_ADDR}"*) VICTIM_PID=${W2_PID}; W2_PID="" ;;
  *) echo "owner ${OWNER} is not a fleet member"; exit 1 ;;
esac
echo "killing ${OWNER}"
kill -9 "${VICTIM_PID}" 2>/dev/null || true

echo "== fabric lane: all 4 results arrive"
wait "${BATCH_PID}" || { echo "batch request failed:"; cat "${BATCH_OUT}"; cat "${CO_LOG}"; exit 1; }
BATCH_SECS=$((SECONDS - BATCH_START + 1))
LINES=$(wc -l <"${BATCH_OUT}")
[ "${LINES}" -eq 4 ] || { echo "batch streamed ${LINES} lines, want 4:"; cat "${BATCH_OUT}"; exit 1; }
DONE_LINES=$(grep -c '"status":"done"' "${BATCH_OUT}")
[ "${DONE_LINES}" -eq 4 ] || { echo "only ${DONE_LINES}/4 jobs done:"; cat "${BATCH_OUT}"; exit 1; }

echo "== fabric lane: rebalanced result is byte-equal to the reference"
LONG_LINE=$(grep '"index":0[,}]' "${BATCH_OUT}")
echo "${LONG_LINE}" | grep -q "\"id\":\"${LONG_ID}\"" || { echo "index 0 is not the long job: ${LONG_LINE}"; exit 1; }
LONG_RESULT=$(echo "${LONG_LINE}" | sed -n 's/.*"result"://p' | strip_elapsed)
if [ "${LONG_RESULT}" != "${REF_RESULT}" ]; then
  echo "rebalanced result diverged from reference:"
  echo "  ref:        ${REF_RESULT}"
  echo "  rebalanced: ${LONG_RESULT}"
  exit 1
fi

echo "== fabric lane: duplicate cost no extra simulation"
DUP_ID=$(grep '"index":1[,}]' "${BATCH_OUT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
DUP_ID2=$(grep '"index":3[,}]' "${BATCH_OUT}" | sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p')
[ -n "${DUP_ID}" ] && [ "${DUP_ID}" = "${DUP_ID2}" ] || { echo "duplicate forked: ${DUP_ID} vs ${DUP_ID2}"; exit 1; }
CO_METRICS=$(curl -sf "http://${CO_ADDR}/metrics")
echo "${CO_METRICS}" | grep -q '^coord_jobs_routed 3$' \
  || { echo "coordinator routed more than 3 jobs for 4 submissions with 1 duplicate:"; \
       echo "${CO_METRICS}" | grep '^coord_'; exit 1; }
echo "${CO_METRICS}" | grep -q '^coord_jobs_rebalanced [1-9]' \
  || { echo "no rebalance recorded after killing a worker:"; echo "${CO_METRICS}" | grep '^coord_'; exit 1; }

echo "== fabric lane: job status was long-polled"
# At -health-every 100ms a watcher sends at most ~10 status requests a
# second; polling every -poll-every (25ms) would send 40.
STATUS_REQS=$(echo "${CO_METRICS}" | sed -n 's/^coord_status_requests \([0-9]*\)$/\1/p')
STATUS_MAX=$((12 * BATCH_SECS + 20))
[ -n "${STATUS_REQS}" ] && [ "${STATUS_REQS}" -gt 0 ] && [ "${STATUS_REQS}" -le "${STATUS_MAX}" ] \
  || { echo "coord_status_requests '${STATUS_REQS}' not in 1..${STATUS_MAX} for a ${BATCH_SECS}s batch:"; \
       echo "${CO_METRICS}" | grep '^coord_'; exit 1; }

echo "== fabric lane: coordinator restart serves stored results"
kill -TERM "${CO_PID}"; wait "${CO_PID}" || true
"${COORD_BIN}" -addr "${CO_ADDR}" -fleet "" -result-dir "${FAB_DIR}/results" >"${CO_LOG}" 2>&1 &
CO_PID=$!
for i in $(seq 1 50); do
  if curl -sf "http://${CO_ADDR}/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
RESTART_DUP=$(curl -sf -X POST "http://${CO_ADDR}/v1/simulations" \
  -H 'Content-Type: application/json' -d "${LONG_REQ}")
echo "${RESTART_DUP}" | grep -q '"deduped":true' \
  || { echo "restarted coordinator re-routed a stored result: ${RESTART_DUP}"; exit 1; }

kill -TERM "${CO_PID}"; wait "${CO_PID}" || true; CO_PID=""
[ -n "${W1_PID}" ] && { kill -TERM "${W1_PID}"; wait "${W1_PID}" || true; W1_PID=""; }
[ -n "${W2_PID}" ] && { kill -TERM "${W2_PID}"; wait "${W2_PID}" || true; W2_PID=""; }

echo "service smoke: OK"
