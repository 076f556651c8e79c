"""One benchmark run: set-up, the closed measuring loop, checks, metrics.

``run`` is what ``run.py`` calls and what the tests call at a tiny size.
An untraced run reports the end-to-end metrics of ``BENCHMARK.json``; a
traced run alternates untraced and traced units of the same work and
reports the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Optional

import numpy as np

import workloads
from tracer import Tracer, default_targets, tail

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = tuple(workloads.UNITS)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    record: dict
    problems: list[str] = field(default_factory=list)

    def line(self) -> str:
        """The last line the benchmark prints."""
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": self.metrics})


def metric_units(root: Path = ROOT) -> tuple[dict, dict]:
    """Name -> unit of the end-to-end and per-layer metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _git_sha(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "metareplay").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas() -> Optional[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def environment(root: Path = ROOT) -> dict:
    return {"git_sha": _git_sha(root), "src_sha256": _src_sha(root),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "adapt2_threads": os.environ.get("ADAPT2_THREADS")}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, units: int, traced: list, overhead: float) -> dict:
    """Every per-layer figure the traced units give, per unit of work.

    calls, windows, busy_s and self_s are totals over the traced units
    divided by their number; p50_ms and tail_ms are over every call.
    """
    stats = tracer.layer_stats()
    out = {}
    for name in {span for _m, _a, span, _w in default_targets()}:
        st = stats.get(name)
        dur = st["durations"] if st else np.zeros(0)
        tail_s, tail_pct = tail(dur)
        out.update({f"{name}.calls": (st["calls"] if st else 0) / units,
                    f"{name}.windows": (st["windows"] if st else 0) / units,
                    f"{name}.busy_s": (st["busy_s"] if st else 0.0) / units,
                    f"{name}.self_s": (st["self_s"] if st else 0.0) / units,
                    f"{name}.samples": int(dur.size),
                    f"{name}.p50_ms": float(np.median(dur)) * 1e3 if dur.size else 0.0,
                    f"{name}.tail_ms": tail_s * 1e3,
                    f"{name}.tail_pct": tail_pct})
    out["tensor.nodes_per_backward"] = tracer.graph_ops / max(tracer.backward_calls, 1)
    out["harness.cells.attempted"] = sum(o.cells for o in traced) / units
    out["harness.cells.failed"] = sum(o.cells_failed for o in traced) / units
    out["trace.overhead_frac"] = overhead
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.DEFAULT_SIZES, root: Path = ROOT,
        out_dir: Optional[Path] = None) -> Result:
    if workload not in workloads.UNITS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    e2e_units, layer_units = metric_units(root)
    out_dir = Path(out_dir or root / "perfbench" / "out")
    out_dir.mkdir(parents=True, exist_ok=True)

    ctx, setup_s = workloads.timed_set_up(root, workload, seed, sizes, out_dir)
    windows = workloads.unit_windows(workload, ctx)
    unit = workloads.UNITS[workload]

    # closed loop: the next unit starts when the last one returned; a traced
    # run alternates untraced and traced units, so both see the same state.
    # Only unit time counts against ``seconds``; the quality probe runs once,
    # after the first unit, and no unit's models outlive it, so memory does
    # not grow with the number of units.
    tracer = Tracer()
    plain_s, traced_s, outcomes, traced = [], [], [], []
    quality = None
    while True:
        tracing = trace and len(plain_s) > len(traced_s)
        if tracing:
            tracer.install()
        try:
            t0 = time.perf_counter()
            outcome = unit(ctx)
            dt = time.perf_counter() - t0
        finally:
            if tracing:
                tracer.restore()
        if tracing:
            traced_s.append(dt)
            traced.append(outcome)
        else:
            plain_s.append(dt)
        outcomes.append(outcome)
        if quality is None:
            quality = workloads.quality(workload, outcome)
        outcome.models.clear()
        if trace and not traced_s:
            continue
        spent = sum(plain_s) + sum(traced_s)
        if spent + median(plain_s + traced_s) > seconds:
            break
    rss = peak_rss_mib()

    val_loss, f1, f1s = quality
    problems = workloads.check(outcomes, f1s)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)

    if trace:
        overhead = median(traced_s) / median(plain_s) - 1.0
        values = layer_metrics(tracer, len(traced), traced, overhead)
        units_of = layer_units
        tracer.save(out_dir / f"{workload}-seed{seed}-spans.npz")
    else:
        values = {"setup_s": setup_s, "windows_per_s": windows / median(plain_s),
                  "peak_rss_mb": rss, "pretext_val_loss": val_loss, "macro_f1": f1}
        units_of = e2e_units
    missing = sorted(set(units_of) - set(values))
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run cannot give: {missing}")
    metrics = {name: {"value": values[name], "unit": unit_}
               for name, unit_ in units_of.items()}

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **environment(root), "windows_per_unit": windows,
              "units": len(plain_s), "unit_s": plain_s,
              "traced_units": len(traced_s), "traced_unit_s": traced_s,
              "setup_s": setup_s, "peak_rss_mb": rss, "digest": outcomes[0].digest(),
              "pretext_val_loss": val_loss, "macro_f1": f1,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted if attempted else None,
              "errors": sorted({e for o in outcomes for e in o.errors})[:5],
              "problems": problems}
    result = Result(correct=not problems, attempted=attempted, failed=failed,
                    metrics=metrics, record=record, problems=problems)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1))
    return result
