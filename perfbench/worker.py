"""One run of one workload, in an interpreter of its own.

Started by run.py, never by hand.  It sets the workload up (imports,
configuration, inputs, one untimed warm-up op), runs ops in a closed loop
with one client until ``--seconds`` have passed and the current cycle of
inputs is complete, checks every op's output outside the timed region,
and prints one JSON object as its last line of output.

Without ``--trace`` the workload's speed probe (``speed.py``) runs
before the warm-up op and after every op.  Each time is divided by the
mean slowness of the two probes around it; the probes themselves are
left out of every time.

With ``--trace 1`` each input runs twice: once with the span wrappers
installed, once without, so the trace overhead is measured in the same
run.  The spans are written to ``--spans-out`` at the end.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed
from spans import Patch, Recorder, breakdown, now_ns

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "cli_manifests": ("workload_cli", "CliManifests"),
    "sweep_dense": ("workload_inproc", "SweepDense"),
    "oracle_verify": ("workload_inproc", "OracleVerify"),
}
WARMUP_INDEX = -1
#: The tail latency is the highest one with this many samples above it.
TAIL_BEYOND = 10

# Per-layer metrics of a traced run: (span name, report calls too).
TIMED_SPANS = (
    ("cli.parse_manifest", False),
    ("cli.build_config", False),
    ("experiments.to_jsonable", False),
    ("experiments.run_fmzi", False),
    ("experiments.run_hom", False),
    ("experiments.run_bell", False),
    ("experiments.run_cz", False),
    ("experiments.run_spectroscopy", False),
    ("fock.apply_transform", True),
    ("fock.ModeTransform", True),
    ("fock.transition_amplitude", True),
    ("fock.permanent", True),
    ("elements.fbs_transform", True),
    ("counting.sample_counts", True),
    ("resonator.fit_doublet", True),
)
LAYERS = ("cli", "experiments", "fock", "elements", "counting", "resonator", "import")


@dataclass
class Op:
    index: int
    ms: float
    cpu_ms: float
    #: Wall time of the whole attempt, output check included.
    cycle_ms: float = 0.0
    #: Slowness the speed probe measured right before and after the op.
    probes: tuple = (1.0, 1.0)
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Runner:
    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.recorder = Recorder()
        self._child_spans = workdir / "child-spans.json"

    def attempt(self, index: int, traced: bool = False) -> Op:
        wl, rec = self.workload, self.recorder
        wl.prepare(index)
        patch = spans_file = None
        if traced:
            if wl.in_process:
                patch = Patch(rec)
            else:
                spans_file = self._child_spans
                spans_file.unlink(missing_ok=True)
            rec.op = index
            root = rec.open("op")
        cpu0, t0 = _cpu_s(), now_ns()
        try:
            out, error = wl.run(index, spans_file), None
        except Exception:
            out, error = None, traceback.format_exc(limit=4)
        t1, cpu1 = now_ns(), _cpu_s()
        if traced:
            rec.close(root)
            if patch is not None:
                patch.restore()
            if spans_file is not None and spans_file.exists():
                self._merge_child(root, index, json.loads(spans_file.read_text()))
            rec.op = None
        op = Op(index, (t1 - t0) / 1e6, (cpu1 - cpu0) * 1e3)
        if error is not None:
            op.failures = [error]
        else:
            try:
                op.failures, op.counts = wl.check(index, out)
            except Exception:
                op.failures = [traceback.format_exc(limit=4)]
        op.cycle_ms = (now_ns() - t0) / 1e6
        return op

    def _merge_child(self, root: int, index: int, spans: list) -> None:
        offset = len(self.recorder.spans)
        for name, start, end, parent, _, count in spans:
            parent = root if parent is None else parent + offset
            self.recorder.spans.append([name, start, end, parent, index, count])


def _e2e(ops: list[Op]) -> tuple[dict, dict]:
    """End-to-end metrics of the timed ops, at nominal speed."""
    n = len(ops)
    scale = [2.0 / sum(op.probes) for op in ops]
    lat = sorted(op.ms * f for op, f in zip(ops, scale))
    failed = sum(1 for op in ops if op.failures)
    tail_index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    cycles_s = sum(op.cycle_ms * f for op, f in zip(ops, scale)) / 1e3
    return {
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (lat[tail_index], "ms"),
        "ops_per_s": (n / cycles_s, "1/s"),
        "cpu_ms_per_op": (sum(op.cpu_ms * f for op, f in zip(ops, scale)) / n, "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "success_pct": (100.0 * (n - failed) / n, "%"),
    }, {
        "samples": n,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples_beyond": n - tail_index - 1,
        "probe_slowness_p50": statistics.median(p for op in ops for p in op.probes),
        "wall_latency_p50_ms": statistics.median(op.ms for op in ops),
        "wall_ops_per_s": n / (sum(op.cycle_ms for op in ops) / 1e3),
    }


def _cycles(values: list, size: int) -> list:
    """Split per-op values into whole cycles of the input pool."""
    return [values[k:k + size] for k in range(0, len(values) - size + 1, size)]


def _per_layer(traced: list[Op], untraced: list[Op], spans: list, size: int) -> dict:
    per_op = breakdown(spans)
    rows = []
    for op in traced:
        b = per_op[op.index]
        row = {
            "untraced_ms": (b["untraced_ns"] / 1e6, "ms"),
            "cli.result_json_bytes": (op.counts.get("cli.result_json_bytes", 0), "bytes"),
            "fock.apply_transform.terms_out": (
                b["count"].get("fock.apply_transform", 0), "count"),
        }
        for lay in LAYERS:
            row[f"{lay}.self_ms"] = (b["self_ns"].get(lay, 0) / 1e6, "ms")
        for name, with_calls in TIMED_SPANS:
            row[f"{name}.ms"] = (b["ns"].get(name, 0) / 1e6, "ms")
            if with_calls:
                row[f"{name}.calls"] = (b["calls"].get(name, 0), "count")
        rows.append(row)
    metrics = {}
    for name, (_, unit) in rows[0].items():
        per_unit = [sum(r[name][0] for r in cycle) / size
                    for cycle in _cycles(rows, size)]
        metrics[name] = (statistics.median(per_unit), unit)
    on = [sum(op.ms for op in u) for u in _cycles(traced, size)]
    off = [sum(op.ms for op in u) for u in _cycles(untraced, size)]
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(on) / statistics.median(off) - 1.0), "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="monotonic time at which run.py started this run")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    module_name, class_name = WORKLOADS[args.workload]
    workload_cls = getattr(importlib.import_module(module_name), class_name)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    workload = workload_cls(args.seed, workdir, reference)
    runner = Runner(workload, workdir)

    probe = None
    if not args.trace:
        probe = speed.interpreter if workload.in_process else speed.process
        t0 = now_ns()
        probes = [probe()]
        probe_s = (now_ns() - t0) / 1e9
    warmup = runner.attempt(WARMUP_INDEX)
    setup_s = (now_ns() - args.t0_ns) / 1e9
    result = {"setup_wall_s": setup_s, "failures": warmup.failures[:5]}
    if probe:
        probes.append(probe())
        result["setup_wall_s"] = setup_s = setup_s - probe_s
        setup_s *= 2.0 / sum(probes)
    result["setup_s"] = setup_s
    if args.setup_only:
        print(json.dumps(result))
        return 0

    size = workload.pool_size
    traced, ops = [], []
    deadline = now_ns() + int(args.seconds * 1e9)
    index = 0
    while index % size or now_ns() < deadline:
        if args.trace:
            traced.append(runner.attempt(index, traced=True))
        op = runner.attempt(index)
        if probe:
            probes.append(probe())
            op.probes = tuple(probes[-2:])
        ops.append(op)
        index += 1

    everything = [warmup] + traced + ops
    failures = [f for op in everything for f in op.failures]
    result.update(attempted=len(everything),
                  failed=sum(1 for op in everything if op.failures),
                  failures=failures[:5])
    if args.trace:
        result["metrics"] = _per_layer(traced, ops, runner.recorder.spans, size)
        result["info"] = {"traced_ops": len(traced), "pool_size": size}
        if args.spans_out:
            runner.recorder.write(args.spans_out)
    else:
        result["metrics"], result["info"] = _e2e(ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
