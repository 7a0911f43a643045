"""Benchmark runner for quandle-cayley.

Run from the root of a checkout:

    python3 bench/run.py --workload suite_default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

One run: write the workload's seeded inputs under .bench_work/, start
bench/worker.py on them for --seconds, time fresh-interpreter imports of
the package from src/ before and after it (setup_s), then check every
output against answers the benchmark computed itself.  With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics; with --trace 1
the budget is split between an untraced and a traced worker, and the
object holds the per-layer metrics.  --all runs every workload both ways
and prints each metric with its unit and sample count.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("suite_default", "raw_large", "iso_pairs")
SETUP_RUNS = 8           # timed imports before the worker, and as many after
RUN_LIMIT_S = 170        # a run must end within 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
         "peak_rss_mb": "MB"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quandle_cayley; "
                "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup() -> list[float]:
    """Import times of SETUP_RUNS fresh interpreters, after one untimed
    import that brings the files into the page cache."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing quandle_cayley failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times[1:]


def run_worker(items_path: Path, seconds: float, trace: bool, tag: str,
               deadline: float) -> dict:
    result_path = WORK / f"{tag}.result.json"
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), str(items_path),
           str(result_path), str(seconds), "1" if trace else "0"]
    if trace:
        cmd.append(str(WORK / f"{tag}.spans.json"))
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text())
    if not Path(result["library"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported the library from {result['library']}")
    return result


# -- correctness ---------------------------------------------------------------


def _load_table(path: str) -> np.ndarray:
    obj = json.loads(Path(path).read_text())
    return np.array(obj["rhd"], dtype=np.int64).reshape(obj["order"], obj["order"])


def check_suite(item: dict, runs: list[dict]) -> tuple[int, int]:
    """A report fails if it is FAIL or its line is missing from the seed
    commit's text output (expected/suite_default.txt).  A wrong exit code
    counts as one more failure; an exception fails every report."""
    want = [l for l in Path(item["expected"]).read_text().splitlines() if l.startswith("[")]
    attempted = failed = 0
    for run in runs:
        attempted += len(want)
        if run["rc"] is None:
            failed += len(want)
            continue
        got = [l for l in run["out"].splitlines() if l.startswith("[")]
        # a FAIL or changed line replaces an expected one: count it once
        bad = max(len(set(want) - set(got)), sum(1 for l in got if l not in want))
        bad += run["rc"] != (1 if any(l.startswith("[FAIL]") for l in got) else 0)
        failed += min(len(want), bad)
    return attempted, failed


ANALYSIS_FIELDS = ("order", "involutory", "edges", "edgeless", "symmetric", "complete",
                   "degrees", "component_count")


def _parse(out: str) -> dict:
    """The item's JSON output, or {} when it is not a JSON object."""
    try:
        obj = json.loads(out)
    except ValueError:
        return {}
    return obj if isinstance(obj, dict) else {}


def analysis_ok(expected: dict, out: str) -> bool:
    info = _parse(out)
    try:
        comps = sorted([c["size"], c["complete"], c["diameter"]] for c in info["components"])
        return (all(info[k] == expected[k] for k in ANALYSIS_FIELDS)
                and comps == expected["components"])
    except (KeyError, TypeError):
        return False


def export_ok(item: dict) -> bool:
    """The exported edge set equals the row sets of the generated table."""
    table = _load_table(item["table"])
    n = len(table)
    try:
        obj = json.loads(Path(item["export"]).read_text())
        edges = np.array(obj["edges"], dtype=np.int64).reshape(-1, 2)
        if obj["n"] != n or edges.min() < 0 or edges.max() >= n:
            return False
    except (OSError, ValueError, KeyError):
        return False
    got = np.zeros((n, n), dtype=bool)
    got[edges[:, 0], edges[:, 1]] = True
    return len(edges) == int(got.sum()) and bool((got == gen.adjacency(table)).all())


def check_raw(item: dict, runs: list[dict]) -> tuple[int, int]:
    # every pass overwrites the export file, so the last pass's is checked
    failed = 0 if export_ok(item) else 1
    for run in runs:
        if run["rc"] != 0 or not analysis_ok(item["expected"], run["out"]):
            failed += 1
    return len(runs), min(failed, len(runs))


def check_iso(item: dict, runs: list[dict]) -> tuple[int, int]:
    """Verdict and exit code as expected; a returned mapping must carry
    every edge and non-edge of A onto B."""
    adj_a = gen.adjacency(_load_table(item["table_a"]))
    adj_b = gen.adjacency(_load_table(item["table_b"]))
    failed = 0
    for run in runs:
        iso = item["expected"]
        if run["rc"] != (0 if iso else 1):
            failed += 1
            continue
        obj = _parse(run["out"])
        if obj.get("isomorphic") is not iso or (
                iso and not gen.valid_isomorphism(adj_a, adj_b, obj.get("mapping"))):
            failed += 1
    return len(runs), failed


CHECKS = {"suite_default": check_suite, "raw_large": check_raw, "iso_pairs": check_iso}


def check(workload: str, items: list[dict], passes: list[list[dict]],
          failed_items: set) -> tuple[int, int]:
    attempted = failed = 0
    for k, item in enumerate(items):
        a, f = CHECKS[workload](item, [p[k] for p in passes])
        attempted += a
        failed += f
        if f:
            failed_items.add(item["name"])
    return attempted, failed


# -- metrics -------------------------------------------------------------------


def p90(values: list[float]) -> float:
    # inclusive: never extrapolates past the largest sample when there are few
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def pass_walls(passes: list[list[dict]]) -> list[float]:
    """A pass's wall time is the sum of its item latencies: the closed loop
    keeps the benchmark's own bookkeeping between items out of it."""
    return [sum(r["ms"] for r in p) / 1e3 for p in passes]


def end_to_end(setup: list[float], result: dict) -> tuple[dict, dict]:
    # an item's latency is its median over passes, so that the percentiles
    # of a few large items (raw_large) stay on one item, not between two
    passes = result["passes"]
    lat = [statistics.median(p[k]["ms"] for p in passes) for k in range(len(passes[0]))]
    walls = pass_walls(passes)
    values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
              "item_p50_ms": statistics.median(lat), "item_p90_ms": p90(lat),
              "peak_rss_mb": result["peak_rss_mb"]}
    samples = {"setup_s": len(setup), "wall_s": len(walls), "item_p50_ms": len(lat),
               "item_p90_ms": len(lat), "peak_rss_mb": 1}
    return values, samples


def per_layer(plain: dict, traced: dict) -> tuple[dict, dict]:
    """Medians over traced passes, plus the tracing overhead."""
    layers = traced["layers"]
    values = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    values["trace.wall_s"] = statistics.median(pass_walls(traced["passes"]))
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(pass_walls(plain["passes"])))
    return values, dict.fromkeys(values, len(layers))


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else ("bytes" if name.endswith("bytes") else "count")


# -- one run -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = WORK / workload
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    items = gen.make_inputs(workload, seed, inputs)
    items_path = inputs / "items.json"
    items_path.write_text(json.dumps([{"argv": it["argv"]} for it in items]))
    tag = f"{workload}-trace{int(trace)}"     # worker files are overwritten per run
    setup: list[float] = []
    if trace:
        plain = run_worker(items_path, seconds / 2, False, tag + "-plain", deadline)
        traced = run_worker(items_path, seconds / 2, True, tag, deadline)
        values, samples = per_layer(plain, traced)
        checked = [plain, traced]
    else:
        # imports on both sides of the worker spread setup_s over the run
        setup += measure_setup()
        plain = run_worker(items_path, seconds, False, tag, deadline)
        setup += measure_setup()
        values, samples = end_to_end(setup, plain)
        checked = [plain]
    attempted = failed = 0
    failed_items: set = set()
    for result in checked:
        a, f = check(workload, items, result["passes"], failed_items)
        attempted += a
        failed += f
    metrics = {k: {"value": v, "unit": UNITS.get(k) or layer_unit(k)} for k, v in values.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine(), "passes": [len(r["passes"]) for r in checked],
              "items": len(items), "samples": samples, "fail_frac": failed / attempted,
              "failed_items": sorted(failed_items), "setup_samples": setup,
              "result": {"correct": failed == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics}}
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{tag}-seed{seed}.json").write_text(json.dumps(record, indent=2))
    return record


def describe(record: dict) -> str:
    lines = [f"# {record['workload']}  seed={record['seed']} seconds={record['seconds']} "
             f"trace={record['trace']} passes={record['passes']} items={record['items']}",
             f"# machine {json.dumps(record['machine'])}"]
    res = record["result"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:34s} {m['value']:14.6f} {m['unit']:6s} "
                     f"n={record['samples'][name]}")
    lines.append(f"  {'fail_frac':34s} {record['fail_frac']:14.6f} {'':6s} "
                 f"({res['failed']} of {res['attempted']})")
    if record["failed_items"]:
        lines.append(f"  failed items: {', '.join(record['failed_items'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    if not (ROOT / "src" / "quandle_cayley" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.all
            else [(args.workload, bool(args.trace))])
    records = []
    try:
        for workload, trace in runs:
            records.append(run_workload(workload, args.seed, args.seconds, trace))
            print(describe(records[-1]), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.all:
        print(json.dumps({f"{r['workload']}.trace{r['trace']}": r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
