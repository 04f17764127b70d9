#!/usr/bin/env bash
# Run staticcheck over first-party code under internal/ and cmd/. Its SA1019
# check flags any use of a deprecated identifier, and the full default suite
# keeps new code to the same bar. The compatibility surfaces this script
# used to grep for (NewSimulator/NewSimulatorE, WithDeltaParams/
# WithIdealConfig, Config.DeltaParams/IdealConfig, the api.Status aliases)
# have been deleted, so the compiler now rejects any use of them.
# staticcheck's absence is not a failure, so the script works in minimal
# containers.
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck"
  staticcheck ./internal/... ./cmd/...
else
  echo "staticcheck not installed; skipping"
fi
echo "deprecation check: OK"
