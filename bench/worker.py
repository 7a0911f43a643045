"""The measured process: runs one workload's items through `cli.main`.

Usage (run.py starts it; PYTHONPATH must hold the checkout's src):

    python3 bench/worker.py ITEMS.json RESULT.json SECONDS TRACE [SPANS.json]

Items run one after another, each starting when the previous one ends
(closed loop, one client).  A pass runs every item once; passes repeat
while the next one is expected to fit in SECONDS, and at least one runs.
With TRACE=1 each pass runs under a fresh Tracer; the per-pass layer
metrics go to RESULT, and the spans, with the index of each item's first
span, go to SPANS.  The result holds each item's latency, exit code and
captured stdout; checking them is run.py's job.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import quandle_cayley
from quandle_cayley import cli

from tracing import Tracer, layer_metrics


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM).  Not ru_maxrss: across
    fork and exec that keeps the parent's peak when it is larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_item(argv: list) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        # one broken item must not hide the others; run.py counts it failed
        return {"ms": (time.perf_counter() - start) * 1e3, "rc": None,
                "out": "", "error": traceback.format_exc()}
    return {"ms": (time.perf_counter() - start) * 1e3, "rc": rc, "out": buf.getvalue()}


def run_pass(items: list, tracer: Tracer | None) -> list[dict]:
    if tracer is None:
        return [run_item(item["argv"]) for item in items]
    tracer.install()
    try:
        results = []
        for item in items:
            first_span = len(tracer.spans)
            results.append(run_item(item["argv"]))
            results[-1]["first_span"] = first_span
        return results
    finally:
        tracer.uninstall()


def main(items_path: str, result_path: str, seconds: str, trace: str,
         spans_path: str | None = None) -> None:
    items = json.loads(Path(items_path).read_text())
    budget = float(seconds)
    passes, layers, dumps = [], [], []
    begin = time.perf_counter()
    while True:
        tracer = Tracer() if trace == "1" else None
        start = time.perf_counter()
        passes.append(run_pass(items, tracer))
        took = time.perf_counter() - start
        if tracer:
            layers.append(layer_metrics(tracer.spans, tracer.counters))
            dumps.append({"counters": tracer.counters, "spans": tracer.spans,
                          "item_first_span": [r["first_span"] for r in passes[-1]]})
        if time.perf_counter() - begin + took > budget:
            break
    result = {
        "library": quandle_cayley.__file__,
        "passes": passes,
        "layers": layers,
        "peak_rss_mb": peak_rss_mb(),
    }
    Path(result_path).write_text(json.dumps(result))
    if spans_path:
        Path(spans_path).write_text(json.dumps({"passes": dumps}))


if __name__ == "__main__":
    main(*sys.argv[1:])
