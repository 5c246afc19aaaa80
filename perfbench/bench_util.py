"""Small helpers shared by the workloads: percentiles, memory, the
metrics-registry deltas the program already publishes, answer
normalisation and the per-run environment record."""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

# Relative tolerance when scores are compared.  Scores are float64 sums
# of the same terms in possibly different orders on different paths;
# 1e-9 is far below any score gap the ranking produces.
SCORE_TOLERANCE = 1e-9

# `latency_p95_ms` is only reported from passes that leave at least
# this many samples beyond their 95th percentile (20 x 10 = 200 samples).
TAIL_SAMPLES = 10
P95_MIN_SAMPLES = 200


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


def p95_valid(n_samples: int) -> bool:
    return n_samples * 0.05 >= TAIL_SAMPLES


def split_passes(values: Sequence, pass_size: int) -> List[Sequence]:
    """The complete passes of the query list in `values` (consecutive
    `pass_size` samples)."""
    return [values[i:i + pass_size]
            for i in range(0, len(values) - pass_size + 1, pass_size)]


def best_per_query(passes: Sequence[Sequence[float]]) -> List[float]:
    """Each query's latency: the best of its timings over the passes.
    On a shared host the noise only ever adds time, and it comes in
    spells of seconds that swing the host's speed by up to 2x; the best
    of ten or more passes spread over the run is the query's own cost,
    where a median would still carry the spell the run happened to
    meet."""
    return [min(times) for times in zip(*passes)]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _status_kb(pid: object, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def reset_peak_rss() -> None:
    """Drop garbage and restart this process's VmHWM at its current RSS
    (Linux `clear_refs` 5), so the peak measured afterwards belongs to
    the database the workload opens, not to the ingest before it."""
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb(pid: object = "self") -> float:
    return _status_kb(pid, "VmHWM") / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """VmHWM of `pid` plus its direct children (the daemon's forked shard
    workers); pages the fork shares are counted once per process."""
    total = peak_rss_mb(pid)
    children = set()
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/children", encoding="ascii") as fh:
                children.update(int(c) for c in fh.read().split())
        except FileNotFoundError:
            continue
    for child in children:
        try:
            total += peak_rss_mb(child)
        except FileNotFoundError:
            continue
    return total


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# ---------------------------------------------------------------------------
# metrics the program publishes
# ---------------------------------------------------------------------------

def registry_totals(snapshot: Dict[str, Dict]) -> Dict[str, float]:
    """Flatten a `MetricsRegistry.snapshot()`: counters by name, and
    histograms as ``<name>:sum`` / ``<name>:count``."""
    out: Dict[str, float] = dict(snapshot.get("counters", {}))
    for name, hist in snapshot.get("histograms", {}).items():
        out[name + ":sum"] = float(hist["sum"])
        out[name + ":count"] = float(hist["count"])
    return out


def delta(after: Dict[str, float], before: Dict[str, float],
          key: str) -> float:
    return float(after.get(key, 0.0)) - float(before.get(key, 0.0))


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sample lines of a Prometheus text exposition, exemplars dropped."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        body = line.split(" # ", 1)[0].rsplit(" ", 1)
        if len(body) == 2:
            try:
                out[body[0]] = float(body[1])
            except ValueError:
                continue
    return out


def prom_sum(samples: Dict[str, float], prefix: str) -> float:
    """Sum every sample whose series name (labels included) starts
    with `prefix`."""
    return sum(v for k, v in samples.items() if k.startswith(prefix))


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------

def complete_answer(results: Iterable) -> List[Tuple[Tuple[int, ...], float]]:
    """A complete result list as (dewey, score) pairs in the returned
    order -- document order for `search`."""
    return [(tuple(r.node.dewey), float(r.score)) for r in results]


def topk_answer(results: Iterable) -> List[float]:
    """A top-K answer as its best-first score list.  Ties may legally
    come back in any order between engines, so ids are not compared."""
    return sorted((float(r.score) for r in results), reverse=True)


def complete_answer_json(payload: Dict) -> List[Tuple[Tuple[int, ...], float]]:
    return [(tuple(r["dewey"]), float(r["score"]))
            for r in payload["results"]]


def topk_answer_json(payload: Dict) -> List[float]:
    return sorted((float(r["score"]) for r in payload["results"]),
                  reverse=True)


def _same_score(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SCORE_TOLERANCE, abs_tol=1e-12)


def same_answer(got: Sequence, want: Sequence) -> bool:
    """Equal ids (for complete answers) and scores within
    `SCORE_TOLERANCE`, position by position."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if isinstance(a, tuple):
            if a[0] != b[0] or not _same_score(a[1], b[1]):
                return False
        elif not _same_score(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# work units (the paper's unit)
# ---------------------------------------------------------------------------

WORK_UNIT_FIELDS = ("tuples_scanned", "results_emitted",
                    "columns_decompressed", "erasures")


def work_units(stats) -> List[int]:
    return [int(getattr(stats, name)) for name in WORK_UNIT_FIELDS]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_sha(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: str, seed: int) -> Dict[str, object]:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "argv": sys.argv[1:],
    }


def rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
