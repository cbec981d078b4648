"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

A plain script rather than a pytest module (its name does not match
``test_*.py``), so it adds nothing to the test suite's run time.  It checks
that

* every workload runs clean at a tiny size, untraced and traced, and emits
  exactly the metrics ``BENCHMARK.json`` names, each with the unit given
  there;
* a deliberately corrupted output fails the workload's check, so the
  checks are shown to catch bad output, and a run whose first pass alone
  is corrupted still reports it as failed, so every pass is checked;
* ``run.py`` exits non-zero without printing a result in a directory that
  holds only ``BENCHMARK.json`` and this directory.

Exits 0 when all of them hold, 1 otherwise (listing what failed).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Keyword arguments of each workload's ``generate`` for a sub-second pass.
TINY = {
    "design_sweep": {"htiles": 2, "max_cores": 256},
    "validation_sim": {"apps": ("lu-classA",)},
    "point_queries": {"per_cell": 1},
}


def corrupt_store(store: Path) -> None:
    """Change the first digit of every stored time, keeping each line's
    length (so the segment index stays valid and the records still parse),
    so that any re-priced sample meets a corrupted record."""
    marker = b'"time_per_iteration_us": '
    changed = 0
    for segment in sorted(store.glob("seg-*.jsonl")):
        data = bytearray(segment.read_bytes())
        at = data.find(marker)
        while at >= 0:
            digit = at + len(marker)
            data[digit] = ord("2") if data[digit] != ord("2") else ord("3")
            changed += 1
            at = data.find(marker, digit)
        segment.write_bytes(bytes(data))
    if not changed:
        raise AssertionError(f"no stored record to corrupt under {store}")


def corrupt(name: str, output: dict) -> dict:
    if name == "design_sweep":
        corrupt_store(Path(output["store"]))
        return output
    if name == "validation_sim":
        return dict(output, report=output["report"] + "\n")
    return dict(output, values=[value * (1.0 + 1e-6) for value in output["values"]])


def corrupt_first_pass(name: str, workload) -> None:
    """Make the workload's first pass, and only that one, leave a corrupted
    output."""
    run_pass = workload.run
    passes = []

    def run(inputs, workdir, *phase):
        result = run_pass(inputs, workdir, *phase)
        if not passes:
            result.output = corrupt(name, result.output)
        passes.append(result)
        return result

    workload.run = run


def bare_directory_refuses(workdir: Path) -> bool:
    """``run.py`` with no program beside it must fail without a result."""
    bare = workdir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "design_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    return done.returncode != 0 and '"correct"' not in done.stdout


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        trace: {metric["name"]: metric["unit"] for metric in declared[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    problems = []
    if {w["name"] for w in declared["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    run.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.SCRATCH))
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")
    try:
        setup = run.measure_setup("point_queries", 1)
        for name, cls in workloads.WORKLOADS.items():
            workload = cls()
            inputs = workload.generate(1, **TINY[name])
            for trace in (0, 1):
                pass_dir = workdir / f"{name}-trace{trace}"
                pass_dir.mkdir()
                detail, result = run.evaluate(
                    workload, inputs, 1, 0.0, bool(trace), pass_dir, setup
                )
                label = f"{name} --trace {trace}"
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label}: failed checks {detail['failures']}")
                emitted = {k: m["unit"] for k, m in result["metrics"].items()}
                if emitted != expected[trace]:
                    problems.append(f"{label}: metrics/units {emitted} != {expected[trace]}")
                for metric, body in result["metrics"].items():
                    if not isinstance(body["value"], (int, float)):
                        problems.append(f"{label}: {metric} has no numeric value")
                values = [body["value"] for body in result["metrics"].values()]
                if trace == 0 and not all(value > 0 for value in values):
                    problems.append(f"{label}: an end-to-end metric reads 0")
                if "environment" not in detail or "store_fs" not in detail["environment"]:
                    problems.append(f"{label}: no environment block")

            pass_dir = workdir / f"{name}-corrupt"
            pass_dir.mkdir()
            output = workload.run(inputs, pass_dir).output
            if workload.check(inputs, output, random.Random(1)):
                problems.append(f"{name}: clean output failed its check")
            if not workload.check(inputs, corrupt(name, output), random.Random(1)):
                problems.append(f"{name}: corrupted output passed its check")

            pass_dir = workdir / f"{name}-first-corrupt"
            pass_dir.mkdir()
            corrupt_first_pass(name, workload)
            detail, result = run.evaluate(workload, inputs, 1, 1.0, False, pass_dir, setup)
            if detail["passes"]["untraced"] < 2 or result["correct"] or not result["failed"]:
                problems.append(f"{name}: a corrupted first pass of {detail['passes']} "
                                f"went unreported ({result['failed']} failed)")

        if not bare_directory_refuses(workdir):
            problems.append("run.py did not refuse a directory without the program")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
