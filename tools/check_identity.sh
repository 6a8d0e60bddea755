#!/usr/bin/env bash
# Regenerate the ci-scope golden artifacts and diff them against the
# committed copies under results/ci/.  Any drift — a changed simulator
# constant, a broken determinism contract, a worker-count dependence —
# fails loudly with the diff.
#
# Usage: tools/check_identity.sh [JOBS]
#   JOBS        worker-domain count to run the experiments with
#               (default 1).  The goldens were generated at --jobs 1;
#               byte-identity at any other value is exactly the
#               determinism contract of Gcperf_exec.Pool.
#
# CI runs this once per matrix leg.
#
# `dune build @check-identity` performs the same comparison (at jobs 1
# and 4) through dune's diff action, with promotion support:
# `dune promote` refreshes the goldens after an intentional change.
set -eu

jobs="${1:-1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

artifacts=(table2 table3 fig3 faults cluster pauseless distill)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
for id in "${artifacts[@]}"; do
  golden="results/ci/$id.txt"
  candidate="$tmp/$id.txt"
  dune exec --no-build -- gcperf run "$id" --scope ci --jobs "$jobs" \
    -o "$candidate" >/dev/null 2>&1 ||
    dune exec -- gcperf run "$id" --scope ci --jobs "$jobs" \
      -o "$candidate" >/dev/null
  if ! diff -u "$golden" "$candidate"; then
    echo "IDENTITY BROKEN: $id (scope ci, jobs $jobs) differs from $golden" >&2
    status=1
  else
    echo "ok $id (scope ci, jobs $jobs)"
  fi
done

exit "$status"
