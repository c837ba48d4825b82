#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation section, then
# the fidelity gate's reference: Tables III–V at the smoke tier, seed 7, at
# CI's ISA (avx2), into results/smoke/ (tests/fidelity.rs reruns them).
# Usage: scripts/run_all_experiments.sh [tier] (smoke|fast|full; default fast)
set -euo pipefail
tier="${1:-fast}"
cd "$(dirname "$0")/.."
cargo build -p hire-eval --release
mkdir -p results/smoke
for b in table2_profiles table3_movielens table4_bookcrossing table5_douban \
         fig6_efficiency fig7_sensitivity table6_ablation fig8_sampling fig9_case_study; do
  echo "=== $b ($tier) ==="
  ./target/release/$b --tier "$tier" --out "results/$b.json" | tee "results/$b.txt"
done
for b in table3_movielens table4_bookcrossing table5_douban; do
  echo "=== $b (smoke, seed 7, avx2: the fidelity gate's reference) ==="
  HIRE_ISA=avx2 ./target/release/$b --tier smoke --seed 7 --out "results/smoke/$b.json" \
    > "results/smoke/$b.txt"
done
