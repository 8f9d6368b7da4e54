#!/usr/bin/env python3
"""Per-PR simulator-performance gate.

Compares a freshly generated BENCH_sim.json against the committed one and
fails (exit 1) when simulation throughput regressed by more than the
threshold (default 15%) on any series:

  - sim_perf entries: google-benchmark median items_per_second per case,
  - bench_metrics entries: events_per_s per figure/table bench,
  - frontend_series entries (NVME_FRONTEND / HOSTBUF_ENDURANCE lines):
    per-series deterministic metrics — simulated MB/s for each NVMe
    queue-sweep series, user-per-device-write ratio for each host-buffer
    endurance point. These are pure functions of the seed (no wall clock),
    so the gate on them is noise-free.

Usage:
    tools/run_benches.sh --quick          # writes a fresh BENCH_sim.json
    tools/compare_bench.py FRESH [BASELINE] [--threshold=0.15]

BASELINE defaults to the committed copy (`git show HEAD:BENCH_sim.json`).
New benches (present only in FRESH) and removed ones are reported but never
fail the gate; only a matched series that got slower can.

Stdlib only — runs anywhere python3 exists.
"""

import json
import subprocess
import sys

DEFAULT_THRESHOLD = 0.15


def load_fresh(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def load_baseline(path):
    if path is not None:
        return load_fresh(path)
    # No committed baseline (first run in a repo, or BENCH_sim.json not yet
    # tracked at HEAD) is not an error: every fresh series is then reported
    # as informational NEW and the gate passes.
    out = subprocess.run(
        ["git", "show", "HEAD:BENCH_sim.json"],
        capture_output=True,
        text=True,
        check=False,
    )
    if out.returncode != 0:
        print(
            "note: no committed BENCH_sim.json baseline at HEAD; "
            "all series are informational",
            file=sys.stderr,
        )
        return {}
    try:
        return json.loads(out.stdout)
    except json.JSONDecodeError:
        print(
            "note: committed BENCH_sim.json is unparsable; "
            "all series are informational",
            file=sys.stderr,
        )
        return {}


def series(doc):
    """Flattens a BENCH_sim.json document into {name: throughput}."""
    out = {}
    for entry in doc.get("sim_perf") or []:
        name = entry.get("name")
        ips = entry.get("items_per_second")
        if name and ips:
            out["sim_perf:" + name] = float(ips)
    for entry in doc.get("bench_metrics") or []:
        name = entry.get("bench")
        eps = entry.get("events_per_s")
        if name and eps:
            out["bench:" + name] = float(eps)
    for entry in doc.get("frontend_series") or []:
        kind = entry.get("series_kind")
        if kind == "NVME_FRONTEND":
            # Simulated bandwidth is deterministic per seed set; logical
            # events/s depends on the wall clock and is tracked via the
            # bench's aggregate BENCH_METRIC instead.
            name = entry.get("series")
            mbps = entry.get("mbps")
            if name and mbps:
                out[f"nvme:{name}:mbps"] = float(mbps)
        elif kind == "HOSTBUF_ENDURANCE":
            # Gate on user blocks per device write (inverse of
            # device_per_user) so that, as everywhere else in this gate,
            # bigger is better: more absorption/less device wear.
            eng = entry.get("engine")
            pool_kb = entry.get("pool_kb")
            dpu = entry.get("device_per_user")
            if eng is not None and pool_kb is not None and dpu:
                out[f"hostbuf:{eng}@{pool_kb}kb:user_per_dev"] = (
                    1.0 / float(dpu)
                )
    return out


def main(argv):
    threshold = DEFAULT_THRESHOLD
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            paths.append(arg)
    if not paths or len(paths) > 2:
        print(__doc__, file=sys.stderr)
        return 2

    fresh = series(load_fresh(paths[0]))
    baseline = series(load_baseline(paths[1] if len(paths) == 2 else None))

    failed = False
    for name in sorted(set(fresh) | set(baseline)):
        if name not in baseline:
            print(f"  NEW      {name}: {fresh[name]:.3e}")
            continue
        if name not in fresh:
            print(f"  REMOVED  {name} (was {baseline[name]:.3e})")
            continue
        old, new = baseline[name], fresh[name]
        delta = (new - old) / old
        status = "ok"
        if delta < -threshold:
            status = "REGRESSED"
            failed = True
        print(f"  {status:9s}{name}: {old:.3e} -> {new:.3e} ({delta:+.1%})")

    if failed:
        print(
            f"\nFAIL: at least one series regressed by more than "
            f"{threshold:.0%}",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: no series regressed by more than {threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
