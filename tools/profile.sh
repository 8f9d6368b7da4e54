#!/usr/bin/env bash
# Builds the benchmark harness with gprof instrumentation and prints where
# one workload's host time goes, grouped by simulator layer.
#
# Usage:
#   tools/profile.sh [workload] [seconds] [seed]
#   tools/profile.sh biza_casa 8 7          # the defaults
#
# perfbench/CMakeLists.txt is configured, unmodified, into a build directory
# outside the checkout ($BIZA_PROFILE_DIR, default ${TMPDIR:-/tmp}/biza-profile)
# with -pg passed through CMAKE_CXX_FLAGS; extra compiler flags (for example
# -fno-inline-functions, to keep small helpers visible) go in
# $BIZA_PROFILE_CXXFLAGS. The harness runs one `--trace 0` run and the flat
# profile is printed twice: self time summed per layer, then the top
# functions. Layers come from the source file that defines each function
# (nm -l), so out-of-line std:: code and shared headers count as "other".
#
#   sim             src/sim
#   biza engine     src/biza (except the two below), src/raid
#   ghost_cache     src/biza/ghost_cache.*
#   zone_scheduler  src/biza/zone_scheduler.*
#   zapraid         src/zapraid
#   zns             src/zns, src/nvme, src/fault
#   nand            src/nand
#   metrics         src/metrics
#   harness         perfbench/, src/workload, src/testbed
set -euo pipefail

workload="${1:-biza_casa}"
seconds="${2:-8}"
seed="${3:-7}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BIZA_PROFILE_DIR:-${TMPDIR:-/tmp}/biza-profile}"
case "${build_dir}/" in
  "${repo_root}/"*)
    echo "profile.sh: build dir must be outside the checkout" >&2
    exit 1
    ;;
esac

cmake -S "${repo_root}/perfbench" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-pg -g ${BIZA_PROFILE_CXXFLAGS:-}" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
cmake --build "${build_dir}" --target perfbench -j "$(nproc)" >/dev/null

run_dir="${build_dir}/run"
mkdir -p "${run_dir}"
rm -f "${run_dir}/gmon.out"
(cd "${run_dir}" &&
  "${build_dir}/perfbench" --workload "${workload}" --seed "${seed}" \
    --seconds "${seconds}" --trace 0 >"${run_dir}/perfbench.out")
tail -n 1 "${run_dir}/perfbench.out" | cut -c1-160

gprof -b -p "${build_dir}/perfbench" "${run_dir}/gmon.out" \
  >"${run_dir}/flat.txt"
nm -C -l --defined-only "${build_dir}/perfbench" >"${run_dir}/symbols.txt"

python3 - "${run_dir}/flat.txt" "${run_dir}/symbols.txt" "${repo_root}" <<'EOF'
import re
import sys

flat_path, symbols_path, root = sys.argv[1:4]

# Demangled symbol name -> defining source file.
source = {}
for line in open(symbols_path, errors="replace"):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) < 3:
        continue
    name, _, where = parts[2].partition("\t")
    source.setdefault(name, where.rsplit(":", 1)[0])

RULES = [
    ("ghost_cache", "src/biza/ghost_cache."),
    ("zone_scheduler", "src/biza/zone_scheduler."),
    ("biza engine", "src/biza/"),
    ("biza engine", "src/raid/"),
    ("zapraid", "src/zapraid/"),
    ("sim", "src/sim/"),
    ("zns", "src/zns/"),
    ("zns", "src/nvme/"),
    ("zns", "src/fault/"),
    ("nand", "src/nand/"),
    ("metrics", "src/metrics/"),
    ("harness", "perfbench/"),
    ("harness", "src/workload/"),
    ("harness", "src/testbed/"),
]


def layer_of(name):
    path = source.get(name, "")
    if path.startswith(root + "/"):
        path = path[len(root) + 1:]
    for layer, prefix in RULES:
        if path.startswith(prefix):
            return layer
    return "other"


rows = []
row = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+(?:(\d+)\s+\S+\s+\S+\s+)?(.+)$")
for line in open(flat_path):
    m = row.match(line)
    if m:
        rows.append((float(m.group(3)), int(m.group(4) or 0), m.group(5).strip()))
total = sum(r[0] for r in rows) or 1.0

by_layer = {}
for self_s, _, name in rows:
    layer = layer_of(name)
    by_layer[layer] = by_layer.get(layer, 0.0) + self_s
print(f"\n{'layer':<16}{'self_s':>9}{'share':>8}")
for layer, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
    print(f"{layer:<16}{self_s:>9.2f}{100 * self_s / total:>7.1f}%")
print(f"{'total':<16}{total:>9.2f}")

print(f"\n{'self%':>6}{'self_s':>8}{'calls':>12}  {'layer':<15}function")
for self_s, calls, name in sorted(rows, key=lambda r: -r[0])[:25]:
    short = name if len(name) <= 90 else name[:87] + "..."
    print(f"{100 * self_s / total:>6.1f}{self_s:>8.2f}{calls:>12}  "
          f"{layer_of(name):<15}{short}")
EOF
