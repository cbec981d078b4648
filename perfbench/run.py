"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is the ``repro`` package
under ``src/``; it is imported from there, so nothing needs installing.
Each run:

1. times the set-up (import plus input generation) in a few fresh
   interpreter processes, one after another, and keeps the median;
2. repeats cold passes of the workload for ``--seconds`` in this one
   process (no worker pools, no shards), each from cold memos and an empty
   store in a private directory under ``.perfbench/`` that is removed at
   exit; with ``--trace 1`` every untraced pass is followed by the same pass
   with the layers' public functions wrapped in spans (``layers.py``), and
   the last traced pass's spans are written to
   ``.perfbench/trace-<workload>-seed<seed>.json``;
3. checks the output of every pass, outside its timed region, counting
   every operation that raised or failed a check against the operations
   attempted;
4. prints one detail line (environment, the workload's own named figures,
   failures) and, last, the result line
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
   with ``--trace 0``, the per-layer ones with ``--trace 1``.

The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: Passes whose per-operation latencies are kept for the percentiles.
LATENCY_PASSES = 20
#: What one machine-speed probe takes at the reference speed the end-to-end
#: timings are scaled to (it took 0.7-1.2 ms on the 2-core Xeon the
#: benchmark was built on).
PROBE_REFERENCE_S = 0.001

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "rerun_s": "s",
}

PER_LAYER = {
    "campaigns.spec.points_s": "s",
    "campaigns.spec.key_s": "s",
    "campaigns.spec.request_s": "s",
    "backends.service.resolve_s": "s",
    "backends.service.distinct_ratio": "ratio",
    "core.model_vec.kernel_s": "s",
    "core.model_vec.points_per_s": "1/s",
    "backends.vectorized.wrap_s": "s",
    "campaigns.runner.record_s": "s",
    "campaigns.store.put_many_s": "s",
    "campaigns.store.records_per_s": "1/s",
    "campaigns.store.bytes_on_disk": "bytes",
    "campaigns.store.quarantined": "count",
    "campaigns.store.open_s": "s",
    "campaigns.store.contains_s": "s",
    "core.predictor.call_us_p50": "us",
    "core.predictor.call_us_p99": "us",
    "core.predictor.hit_ratio": "ratio",
    "simulator.wavefront.event_run_s": "s",
    "simulator.wavefront.aggregated_run_s": "s",
    "simulator.wavefront.event_path_share": "ratio",
    "simulator.machine.events": "count",
    "simulator.machine.messages": "count",
    "simulator.machine.bus_transfers": "count",
    "simulator.machine.events_per_host_s": "1/s",
    "simulator.machine.messages_per_host_s": "1/s",
    "backends.simulator.cache_misses": "count",
    "campaigns.report.render_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

SETUP_PROBE = (
    "import sys, time\n"
    "import run\n"
    "speed = run.probe()\n"
    "start = time.perf_counter()\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[1]]().generate(int(sys.argv[2]))\n"
    "print(time.perf_counter() - start, speed)\n"
)


def _probe_work() -> int:
    """Fixed allocation-heavy pure-Python work, independent of the program."""
    table = {}
    for i in range(3000):
        table[i] = (i * i, str(i))
    return sum(value[0] for value in table.values())


def probe() -> float:
    """The machine's speed right now: the fastest of a few probe runs.

    Other tenants of a shared machine change its speed in regimes lasting
    seconds to minutes; the wall time of a pass and of the probe just before
    it move together, so their ratio is steady where either alone is not
    (see NOTES.md).
    """
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - start)
    return best


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A wall time scaled to the machine speed where a probe takes
    :data:`PROBE_REFERENCE_S`."""
    return seconds * PROBE_REFERENCE_S / probe_s


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """Import plus input generation, timed in fresh interpreters in turn:
    ``(wall seconds, probe seconds)`` per interpreter, the probe taken just
    before the timed part."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH_DIR), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, speed = map(float, done.stdout.split()[-2:])
        samples.append((seconds, speed))
    return samples


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, refname = line.partition(" ")
            if refname == name:
                return sha
    return "unknown"


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from mountinfo)."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text(encoding="utf-8").splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        if "-" not in fields:
            continue
        mount = fields[4].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, fields[fields.index("-") + 1]
    return fstype


def environment(store_dir: Path) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "store_fs": filesystem_of(store_dir),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def measure(workload, inputs, seed: int, seconds: float, trace: bool, workdir: Path):
    """Repeat passes for ``seconds``, checking each one's output.

    Every untraced pass is timed after a machine-speed probe; with
    ``trace``, it is followed by the same pass under :func:`layers.instrument`.
    The checks run outside the timed regions, with one seeded generator
    that moves the re-pricing samples on from pass to pass; then the pass's
    output and directory are dropped.  A pass that raises is recorded as a
    traceback and the run goes on.
    """
    if trace:
        import layers
    check_rng = random.Random(seed)
    per_pass = workload.ops(inputs)
    untraced, traced, summaries, failures = [], [], [], []
    attempted = failed = 0
    recorder = None
    start = perf_counter()
    index = 0
    while True:
        for kind in ("untraced", "traced") if trace else ("untraced",):
            pass_dir = workdir / f"pass-{index}"
            pass_dir.mkdir()
            index += 1
            attempted += per_pass
            try:
                if kind == "untraced":
                    speed = probe()
                    result = workload.run(inputs, pass_dir)
                    result.probe_s = speed
                    untraced.append(result)
                else:
                    recorder = layers.Recorder()
                    with layers.instrument(recorder):
                        result = workload.run(inputs, pass_dir, recorder.phase)
                    store = result.output.get("store")
                    summaries.append(layers.pass_layers(recorder, store))
                    traced.append(result)
            except Exception:  # a raising pass is a failed pass, not a crashed run
                failures.append(f"{kind} pass raised:\n{traceback.format_exc()}")
                failed += per_pass
                shutil.rmtree(pass_dir)
                continue
            try:
                found = workload.check(inputs, result.output, check_rng)
                failed += min(len(found), per_pass)
            except Exception:  # unreadable output: none of the pass's operations verified
                found = [f"check raised:\n{traceback.format_exc()}"]
                failed += per_pass
            failures += found
            result.output = None
            if kind == "traced" or len(untraced) > LATENCY_PASSES:
                result.latencies = []
            shutil.rmtree(pass_dir)
        if perf_counter() - start >= seconds:
            tracer = recorder.tracer if recorder else None
            return untraced, traced, summaries, tracer, attempted, failed, failures


def evaluate(workload, inputs, seed: int, seconds: float, trace: bool,
             workdir: Path, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Measure, check and summarise one workload; returns the detail record
    and the result record (the last line ``main`` prints)."""
    untraced, traced, summaries, tracer, attempted, failed, failures = measure(
        workload, inputs, seed, seconds, trace, workdir
    )
    rss = peak_rss_mb()

    setup_s = _median(at_reference_speed(wall, speed) for wall, speed in setup)
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ops_per_s": _median(p.ops / at_reference_speed(p.pass_s, p.probe_s) for p in untraced),
        "rerun_s": _median(at_reference_speed(p.rerun_s, p.probe_s) for p in untraced),
    }
    wall = {
        "setup_s_wall": (_median(wall for wall, _speed in setup), "s"),
        "ops_per_s_wall": (_median(p.ops / p.pass_s for p in untraced), "1/s"),
        "rerun_s_wall": (_median(p.rerun_s for p in untraced), "s"),
    }
    named = {
        **{name: (value, END_TO_END[name]) for name, value in end_to_end.items()},
        **wall,
        "error_rate": (failed / attempted, "ratio"),
        **(workload.named(untraced) if untraced else {}),
    }
    trace_file = None
    if trace:
        import layers

        values = {}
        if summaries and untraced:
            values = layers.layer_metrics(
                summaries,
                traced_pass_s=_median(p.pass_s for p in traced),
                untraced_pass_s=_median(p.pass_s for p in untraced),
            )
        units = PER_LAYER
        trace_file = SCRATCH / f"trace-{workload.name}-seed{seed}.json"
        if tracer is not None:
            tracer.write(trace_file, {"workload": workload.name, "seed": seed,
                                      "spans_of": "the last traced pass"})
    else:
        values = end_to_end
        units = END_TO_END
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "environment": environment(workdir),
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "setup_samples": [{"wall_s": w, "probe_s": p} for w, p in setup],
        "probe_s_median": _median(p.probe_s for p in untraced),
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
        "failures": failures[:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload]()

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    try:
        setup = measure_setup(args.workload, args.seed)
        inputs = workload.generate(args.seed)
        detail, result = evaluate(
            workload, inputs, args.seed, args.seconds, bool(args.trace), workdir, setup
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in detail["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
