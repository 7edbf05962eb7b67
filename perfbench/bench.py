"""Run one workload: set up, time a closed loop of calls, check every output.

The timed phase accumulates the duration of the workload's public call
only; checks run between calls, outside it.  Every tenth of a second of
call time the reference kernel (``reference.py``) is timed as well, and
each call's duration is rescaled by the kernel times around it, so the
gated timings read at the reference speed.  With tracing on, the same
untraced loop runs first; then the loop's first calls run twice more,
untraced and with the per-layer wrappers installed, so the two compare.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
from tracer import Tracer
from workloads import WORKLOADS

MIN_CALLS = 100  # p90 keeps at least ten samples beyond it
SAMPLE_EVERY_S = 0.1  # call time between two samples of the reference kernel
RUN_PY = Path(__file__).with_name("run.py")


@dataclass
class Result:
    metrics: dict     # name -> (value, unit), as listed in BENCHMARK.json
    attempted: int
    failed: int
    extra: dict       # name -> (value, unit), printed for reading only


class _Tally:
    """Checked outcomes; a call that raises or fails its check fails all its items."""

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.attempted = self.failed = 0

    def add(self, item, out) -> int:
        """Count one call's items; returns how many of them failed."""
        n = self.workload.items(item)
        ok = not isinstance(out, Exception) and _checked(
            self.workload.name, self.workload.check, self.state, item, out)
        self.attempted += n
        if not ok:
            self.failed += n
        return 0 if ok else n


def _checked(name, check, *args) -> bool:
    """The check's verdict; a check that raises fails, it does not end the run."""
    try:
        return bool(check(*args))
    except Exception as e:
        _report(name, e)
        return False


def _report(name, error) -> None:
    print(f"{name}: {type(error).__name__}: {error}", file=sys.stderr)


def _timed_call(workload, state, item):
    t0 = perf_counter()
    try:
        out = workload.call(state, item)
    except Exception as e:  # counted as failed items by the tally
        out = e
    dt = perf_counter() - t0
    if isinstance(out, Exception):
        _report(workload.name, out)
    return out, dt


def setup_workload(name: str, seed: int, tracer=None):
    """Make the workload's inputs; returns (state, seconds taken)."""
    t0 = perf_counter()
    state = WORKLOADS[name].setup(seed, tracer)
    return state, perf_counter() - t0


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time, import included, of a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(RUN_PY), "--setup-only", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=170)
    return float(out.stdout.split()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, speed_before: list | tuple = (), setup_probes: int = 0,
                 min_calls: int = MIN_CALLS, traced_calls: int | None = None) -> Result:
    """Run one workload.  ``setup_s`` is the median over this process
    (``import_s`` plus its set-up, rescaled by the reference samples in
    ``speed_before`` and those taken after it) and ``setup_probes`` fresh
    interpreters."""
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    state, setup_s = setup_workload(name, seed, tracer)
    setup_s = (import_s + setup_s) * reference.scale(
        [*speed_before, *reference.samples(reference.SPAN)])
    calls = state.calls
    tally = _Tally(workload, state)

    gc.collect()
    speed = [reference.sample()]
    latencies = []
    speed_at = []     # per call: how many reference samples preceded it
    passed_items = 0
    busy = since = 0.0
    k = 0
    while busy < seconds or k < min_calls or k % workload.round_len:
        item = calls[k % len(calls)]
        speed_at.append(len(speed))
        out, dt = _timed_call(workload, state, item)
        busy += dt
        since += dt
        latencies.append(dt)
        passed_items += workload.items(item) - tally.add(item, out)
        k += 1
        if since >= SAMPLE_EVERY_S:
            speed.append(reference.sample())
            since = 0.0
    speed.append(reference.sample())
    scaled = [dt * reference.scale(reference.around(speed, i))
              for dt, i in zip(latencies, speed_at)]

    if workload.finish is not None:
        tally.attempted += 1
        tally.failed += not _checked(name, workload.finish, state)

    extra = {}
    if tracer is not None:
        metrics = _traced_pass(workload, state, tracer, tally,
                               traced_calls or workload.traced_calls)
    else:
        # Where calls of very different sizes alternate, the median call
        # falls between them and moves with the mix a run happens to see.
        extra["call_ms_p50"] = (1000 * statistics.median(scaled), "ms")
        extra["items_per_s.raw"] = (passed_items / busy, "items/s")
        extra["call_ms_p90.raw"] = (1000 * _p90(latencies), "ms")
        extra["reference.speed"] = (
            reference.NOMINAL_S / statistics.median(speed), "ratio")
        setup_samples = [setup_s] + [
            _probe_setup(name, seed) for _ in range(setup_probes)]
        metrics = {
            "items_per_s": (passed_items / sum(scaled), "items/s"),
            "call_ms_p90": (1000 * _p90(scaled), "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mib": (_peak_rss_mib(), "MiB"),
            "pass_ratio": (1 - tally.failed / tally.attempted, "passed/attempted"),
        }
    extra["fail_ratio"] = (tally.failed / tally.attempted, "failed/attempted")
    return Result(metrics, tally.attempted, tally.failed, extra)


def _pass(workload, state, items) -> tuple:
    """Time the calls on items; returns (outputs, seconds spent in calls)."""
    outs = []
    busy = 0.0
    for item in items:
        out, dt = _timed_call(workload, state, item)
        busy += dt
        outs.append(out)
    return outs, busy


def _traced_pass(workload, state, tracer, tally, n_calls) -> dict:
    """Run the loop's first calls again, untraced and then traced, so the
    two passes compare the same work with warm caches."""
    items = [state.calls[k % len(state.calls)] for k in range(n_calls)]
    outs, untraced_s = _pass(workload, state, items)
    with tracer.active():
        before = tracer.self_total()
        traced_outs, traced_s = _pass(workload, state, items)
        attributed = tracer.self_total() - before
    for item, out in zip(items + items, outs + traced_outs):
        tally.add(item, out)
    metrics = tracer.layer_metrics()
    metrics.update({
        "trace.items": (sum(workload.items(i) for i in items), "count"),
        "trace.wall_s": (traced_s, "s"),
        "trace.attributed_share": (attributed / traced_s, "ratio"),
        "trace.unattributed_s": (traced_s - attributed, "s"),
        "trace.overhead_ratio": (untraced_s / traced_s, "ratio"),
    })
    return metrics


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
