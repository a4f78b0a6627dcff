#!/usr/bin/env bash
# Builds wire_bench from source into build-suite/ and runs it. Run from
# anywhere; paths are taken relative to the repository root.
#
#   bash bench/suite/run.sh                    every workload, untraced + traced
#   bash bench/suite/run.sh --seed 7 --seconds 10
#   bash bench/suite/run.sh --smoke            about 1/20 of the ops, same checks
#   bash bench/suite/run.sh --repeat 2         everything twice; spreads vs bounds
#   bash bench/suite/run.sh --check-baseline   exact numbers vs baselines/seed<S>.json
#   bash bench/suite/run.sh --write-baseline   regenerate baselines/seed<S>.json
#   bash bench/suite/run.sh --workload NAME --seed S --seconds T --trace 0|1
#                                              one run; the last line is JSON
#
# Exits nonzero if the build fails, any op fails a check, a baseline field
# changed, or (with --repeat) a spread exceeds its BENCHMARK.json bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-suite"
bench="$build/wire_bench"
workloads=(table1_matrix wire_fine_control ensemble_dense ensemble_chaos)

build_bench() {
  if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
    echo "run.sh: no simulator sources at $root/src" >&2
    exit 1
  fi
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    local generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" -j "$(nproc)" >&2
}

cd "$root"

# One run, as the benchmark contract invokes it: pass everything through.
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    build_bench
    exec "$bench" "$@"
  fi
done

seed=1
seconds=20
repeat=1
smoke=()
baseline=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); seconds=0; shift ;;
    --check-baseline) baseline=check; shift ;;
    --write-baseline) baseline=write; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build_bench
out="$root/bench_results/suite"
mkdir -p "$out"
status=0

if [[ -n "$baseline" ]]; then
  file="$here/baselines/seed$seed.json"
  for w in "${workloads[@]}"; do
    echo "== $w: $baseline baseline $file"
    if ! "$bench" --workload "$w" --seed "$seed" "--$baseline-baseline" "$file" \
        > "$out/baseline_$w.txt"; then
      status=1
    fi
    grep '^baseline' "$out/baseline_$w.txt" || true
  done
  exit "$status"
fi

rm -f "$out"/r*_*.txt
for ((r = 1; r <= repeat; r++)); do
  for w in "${workloads[@]}"; do
    for trace in 0 1; do
      log="$out/r${r}_${w}_trace${trace}.txt"
      if ! "$bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
          --trace "$trace" "${smoke[@]}" > "$log"; then
        echo "run.sh: $w (trace $trace, run $r) failed" >&2
        status=1
      fi
      echo "== $w, $([[ $trace == 0 ]] && echo end-to-end || echo per-layer), run $r"
      awk -F '\t' '$1 == "metric" { printf "  %-36s %24s %s\n", $3, $4, $5 }
                   $1 == "digest" { printf "  %-36s %24s\n", $3, $4 }' "$log"
    done
  done
done

if ((repeat > 1)); then
  # Relative spread (max - min) / median of every host metric with a bound,
  # and exact equality of every exact metric and digest, across the repeats.
  # Like the benchmark's bounds, the spread check skips setup_s, whose bound
  # applies to its median.
  echo "== repeatability over $repeat runs (seed $seed)"
  if ! awk -F '\t' '
      FNR == NR {
        if (match($0, /"name": "[^"]*"/)) {
          name = substr($0, RSTART + 9, RLENGTH - 10)
          if (match($0, /"bound": [0-9.]+/)) bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
        }
        next
      }
      $1 == "metric" || $1 == "digest" {
        key = $2 "\t" $3
        if (!(key in n)) { order[++keys] = key; kind[key] = ($1 == "digest" ? "exact" : $6) }
        vals[key, ++n[key]] = $4
      }
      END {
        bad = 0
        for (k = 1; k <= keys; k++) {
          key = order[k]; split(key, part, "\t"); m = part[2]
          if (kind[key] == "exact") {
            same = 1
            for (i = 2; i <= n[key]; i++) if (vals[key, i] != vals[key, 1]) same = 0
            if (!same) { printf "  %-18s %-34s CHANGED between runs\n", part[1], m; bad = 1 }
            continue
          }
          if (!(m in bound)) continue
          lo = hi = vals[key, 1] + 0
          for (i = 2; i <= n[key]; i++) { v = vals[key, i] + 0; if (v < lo) lo = v; if (v > hi) hi = v }
          # median of the n values
          cnt = n[key]
          for (i = 1; i <= cnt; i++) s[i] = vals[key, i] + 0
          for (i = 2; i <= cnt; i++) { v = s[i]; j = i - 1; while (j > 0 && s[j] > v) { s[j + 1] = s[j]; j-- } s[j + 1] = v }
          med = (cnt % 2) ? s[(cnt + 1) / 2] : (s[cnt / 2] + s[cnt / 2 + 1]) / 2
          spread = med != 0 ? (hi - lo) / med : 0
          # setup_s is judged on its median across runs, not its spread.
          if (m == "setup_s") verdict = "median only"
          else if (spread <= bound[m]) verdict = "ok"
          else { verdict = "OVER BOUND"; bad = 1 }
          printf "  %-18s %-16s median %14.6g  spread %7.4f  bound %5.3f  %s\n", part[1], m, med, spread, bound[m], verdict
        }
        exit bad
      }' "$root/BENCHMARK.json" "$out"/r*_*.txt; then
    status=1
  fi
fi
exit "$status"
