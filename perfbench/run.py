#!/usr/bin/env python3
"""freqbin benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
the checkout's ``src/`` directory, nothing needs installing.  Workloads:
``cli_manifests``, ``sweep_dense``, ``oracle_verify`` (see README.md in
this directory).

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
of three set-ups, each in a fresh interpreter: the measured run's own and
two more that stop after their warm-up op.  Every time among them is
divided by the slowness a speed probe of ``speed.py`` measured next to
it; the line before the result also gives the wall times.

``--trace 1`` prints the per-layer metrics: the ``import.*`` times of
``python -X importtime -c "import freqbin"`` (median of three fresh
interpreters) and the per-op span breakdown of a traced run.  Its spans
are written to ``.perfbench/traces/``.

Every op's output is checked; the last line of output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 if any check failed, 2 if the checkout has no package.  The line
before it holds the environment (commit, versions, core count, load).  A
run still busy ``--seconds`` plus 90 s after it started stops its
processes and exits 1 without a result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_manifests", "sweep_dense", "oracle_verify")
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
#: Time allowed beyond ``--seconds`` for the set-ups, the import probes and
#: the last cycle of inputs; every process the run starts is stopped by
#: then.  A traced run alternates traced and untraced ops within the same
#: ``--seconds``, so it needs no more.
MARGIN_S = 90.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One client, nothing in parallel: BLAS stays on one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: list[str], deadline: float) -> tuple[str, str]:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, err


def _worker(args, workdir: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    out, _ = _run(cmd, deadline)
    return json.loads(out.strip().splitlines()[-1])


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative ms of the outermost freqbin, scipy and numpy imports in
    ``-X importtime`` output (children are printed before their parent)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(cumulative)))
    totals = {"freqbin": 0, "scipy": 0, "numpy": 0}
    path: list[str] = []
    for level, name, cumulative in reversed(entries):
        del path[level:]
        top = name.split(".")[0]
        if top in totals and all(p.split(".")[0] != top for p in path):
            totals[top] += cumulative
        path.append(name)
    return {f"import.{k}_ms": v / 1000.0 for k, v in totals.items()}


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(load_start, load_end) -> dict:
    nproc = os.cpu_count()
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": platform.machine(),
        "nproc": nproc,
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "load_exceeds_nproc": max(load_start[0], load_end[0]) > nproc,
    }


def measure(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    """Metrics and run facts of one run."""
    if args.trace:
        probes = []
        for _ in range(IMPORT_SAMPLES):
            _, err = _run([sys.executable, "-X", "importtime", "-c", "import freqbin"],
                          deadline)
            probes.append(import_times(err))
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans_out = traces / f"{args.workload}-seed{args.seed}.json"
        res = _worker(args, workdir, deadline, "--spans-out", str(spans_out))
        metrics = {k: (statistics.median(p[k] for p in probes), "ms") for k in probes[0]}
        metrics.update({k: tuple(v) for k, v in res["metrics"].items()})
        res["info"]["spans"] = str(spans_out.relative_to(ROOT))
        return metrics, res
    res = _worker(args, workdir, deadline)
    setups, walls = [res["setup_s"]], [res["setup_wall_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        probe = _worker(args, workdir, deadline, "--setup-only")
        setups.append(probe["setup_s"])
        walls.append(probe["setup_wall_s"])
        res["attempted"] += 1
        res["failed"] += bool(probe["failures"])
        res["failures"] += probe["failures"]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    metrics.update({k: tuple(v) for k, v in res["metrics"].items()})
    res["info"]["setup_samples_s"] = setups
    res["info"]["setup_wall_samples_s"] = walls
    return metrics, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freqbin" / "__init__.py").is_file():
        print(f"error: no freqbin package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + MARGIN_S
    load_start = os.getloadavg()
    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    try:
        metrics, res = measure(args, workdir, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(load_start, os.getloadavg())
    res["info"]["error_rate"] = res["failed"] / res["attempted"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "info": res["info"], "failures": res["failures"]}))
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
