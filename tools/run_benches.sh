#!/usr/bin/env bash
# Builds the Release tree and runs the benchmark suite, recording performance
# numbers into BENCH_sim.json at the repo root:
#
#   - bench/sim_perf (google-benchmark): event-queue throughput, old vs new
#     implementation, median of --repetitions runs.
#   - every figure/table bench binary: each prints one BENCH_METRIC JSON line
#     (wall-clock seconds, simulated events, events/sec) via BenchMetricScope.
#   - a reference afa_bench --stats run: its BENCH_HISTOGRAMS line (latency
#     histogram summaries per layer: p50/p99/p99.9/max) lands in .histograms
#     so latency-shape regressions show up next to the throughput numbers.
#   - a full-geometry reference run: afa_bench --full-geometry, recorded as
#     bench:afa_fullgeo.
#
# Usage:
#   tools/run_benches.sh             # sim_perf + all figure/table benches
#   tools/run_benches.sh --quick     # sim_perf only (seconds, not minutes)
#
# Honors BIZA_THREADS for the parallel experiment runner inside the benches.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-release"
out_json="${repo_root}/BENCH_sim.json"
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" >/dev/null

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

echo "== sim_perf (event-queue microbenchmark) =="
"${build_dir}/bench/sim_perf" \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="${tmp_dir}/sim_perf.json" \
  --benchmark_out_format=json

metric_lines="${tmp_dir}/metrics.jsonl"
series_lines="${tmp_dir}/series.jsonl"
: > "${metric_lines}"
: > "${series_lines}"
if [[ "${quick}" -eq 1 && -f "${out_json}" ]]; then
  # Quick mode refreshes sim_perf only; keep the last full run's metrics.
  jq -r '.bench_metrics[]? | @json' "${out_json}" >> "${metric_lines}" || true
  jq -r '.frontend_series[]? | @json' "${out_json}" >> "${series_lines}" || true
fi
histograms_json="${tmp_dir}/histograms.json"
echo '{}' > "${histograms_json}"
if [[ "${quick}" -eq 1 && -f "${out_json}" ]]; then
  jq '.histograms // {}' "${out_json}" > "${histograms_json}" || true
fi
if [[ "${quick}" -eq 0 ]]; then
  for bench in "${build_dir}"/bench/*; do
    name="$(basename "${bench}")"
    [[ -f "${bench}" && -x "${bench}" ]] || continue
    case "${name}" in
      sim_perf|micro_components) continue ;;  # google-benchmark binaries
    esac
    echo "== ${name} =="
    "${bench}" | tee "${tmp_dir}/${name}.out" | grep '^BENCH_METRIC ' \
      | sed 's/^BENCH_METRIC //' >> "${metric_lines}" || true
    # Per-series machine-readable lines (NVMe frontend sweep, host-buffer
    # endurance curve): tagged with their kind so compare_bench.py can
    # gate each series on its deterministic metric.
    grep -E '^(NVME_FRONTEND|HOSTBUF_ENDURANCE) ' "${tmp_dir}/${name}.out" \
      | while read -r kind json; do
          jq -c --arg kind "${kind}" '. + {series_kind: $kind}' <<<"${json}"
        done >> "${series_lines}" || true
  done

  # Reference latency-histogram snapshot: one fixed BIZA run with the stat
  # registry attached. The BENCH_HISTOGRAMS line carries per-layer latency
  # summaries (p50/p99/p99.9/max in us) into .histograms.
  echo "== afa_bench --stats (latency histograms) =="
  "${build_dir}/tools/afa_bench" --platform=BIZA --workload=casa \
    --requests=20000 --seconds=1 --stats \
    | tee "${tmp_dir}/afa_bench_stats.out" | grep '^BENCH_HISTOGRAMS ' \
    | sed 's/^BENCH_HISTOGRAMS //' > "${histograms_json}" || true

  # Full-geometry reference: one BIZA run on the real ZN540 layout.
  echo "== afa_bench --full-geometry =="
  "${build_dir}/tools/afa_bench" --platform=BIZA --workload=casa \
    --full-geometry --requests=100000 --seconds=1 \
    --bench-metric=afa_fullgeo \
    | tee "${tmp_dir}/afa_fullgeo.out" | grep '^BENCH_METRIC ' \
    | sed 's/^BENCH_METRIC //' >> "${metric_lines}" || true
fi

jq -n \
  --slurpfile perf "${tmp_dir}/sim_perf.json" \
  --slurpfile metrics <(cat "${metric_lines}" 2>/dev/null; true) \
  --slurpfile fseries <(cat "${series_lines}" 2>/dev/null; true) \
  --slurpfile hist "${histograms_json}" \
  '{
     generated_by: "tools/run_benches.sh",
     sim_perf: ($perf[0].benchmarks
                | map(select(.run_type == "aggregate" and
                             .aggregate_name == "median")
                      | {name, items_per_second})),
     bench_metrics: $metrics,
     frontend_series: $fseries,
     histograms: ($hist[0] // {})
   }' > "${out_json}"

echo "wrote ${out_json}"
jq '.sim_perf' "${out_json}"
