#!/usr/bin/env bash
# The A/A check: run the whole suite twice on this commit — four
# workloads, seeds 1 and 2, untraced and traced — and compare the two
# result sets. Passes when every end-to-end metric of B is within its
# bound of A with nothing unresolved, and digests and exact counts repeat.
#
#   bench/e2e/aa.sh [out-dir]        (from the repository root, ~17 min)
set -euo pipefail

out="${1:-.bench_build/aa}"
mkdir -p "$out"
rm -f "$out/A.json" "$out/B.json"

for side in A B; do
  for seed in 1 2; do
    for workload in text-single speech-batch vision-dag text-dist; do
      for trace in 0 1; do
        echo "== $side: $workload seed $seed trace $trace" >&2
        bash bench/e2e/run.sh -workload "$workload" -seed "$seed" -trace "$trace" \
          -json "$out/$side.json" >"$out/last.log"
      done
    done
  done
done

.bench_build/e2e -compare "$out/A.json" "$out/B.json"
