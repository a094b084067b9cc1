"""In-memory span recorder and the wrappers that feed it.

The benchmark never edits the package.  It records spans by replacing
public functions of the freqbin modules with timing wrappers for the
length of one traced operation and restoring the originals afterwards.
A function imported by name into another freqbin module (``from .fock
import apply_transform``) is a second reference to the same object, so
every freqbin module attribute bound to a wrapped function is replaced.

A span is the list ``[name, start_ns, end_ns, parent, op, count]``:
``parent`` is the index of the enclosing span (None at top level), ``op``
the operation id, and ``count`` an optional size of the result (Fock
terms out).  Times come from ``time.monotonic_ns``, CLOCK_MONOTONIC on
Linux, which is shared by every process on the machine, so spans written
by a child process nest inside the parent's operation span.

This module imports only the standard library, so a child process can
load it before freqbin and time the package import itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time

now_ns = time.monotonic_ns

# (module, attribute, span name, count of the result or None).  An
# attribute "Class.method" wraps the method on the class.
TARGETS = (
    ("freqbin.cli", "main", "cli.main", None),
    ("freqbin.cli", "parse_manifest", "cli.parse_manifest", None),
    ("freqbin.cli", "build_config", "cli.build_config", None),
    ("freqbin.experiments", "run_fmzi", "experiments.run_fmzi", None),
    ("freqbin.experiments", "run_hom", "experiments.run_hom", None),
    ("freqbin.experiments", "run_bell", "experiments.run_bell", None),
    ("freqbin.experiments", "run_cz", "experiments.run_cz", None),
    ("freqbin.experiments", "run_cz_characterization",
     "experiments.run_cz_characterization", None),
    ("freqbin.experiments", "run_spectroscopy", "experiments.run_spectroscopy", None),
    ("freqbin.experiments", "ExperimentResult.to_jsonable",
     "experiments.to_jsonable", None),
    ("freqbin.fock", "apply_transform", "fock.apply_transform", len),
    ("freqbin.fock", "ModeTransform.__init__", "fock.ModeTransform", None),
    ("freqbin.fock", "transition_amplitude", "fock.transition_amplitude", None),
    ("freqbin.fock", "permanent", "fock.permanent", None),
    ("freqbin.elements", "fbs_transform", "elements.fbs_transform", None),
    ("freqbin.counting", "sample_counts", "counting.sample_counts", None),
    ("freqbin.resonator", "fit_doublet", "resonator.fit_doublet", None),
)


class Recorder:
    """Spans of the current process, kept in memory until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now_ns(), 0, parent, self.op, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = now_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, count):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else None, self.op, None])
            stack.append(sid)
            record = spans[sid]
            record[1] = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = now_ns()
                stack.pop()
            if count is not None:
                record[5] = count(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def breakdown(spans: list[list]) -> dict:
    """Per op: its duration, the part no span covers, self time per layer,
    and calls, inclusive time and result counts per span name, in ns.

    Each op has one top-level span named ``op``.  A span's self time is
    its duration minus its children's durations, so per op the layer self
    times plus ``untraced_ns`` equal ``op_ns``.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, op, count in spans:
        if parent is not None:
            child_ns[parent] += end - start
    ops: dict = {}
    for sid, (name, start, end, parent, op, count) in enumerate(spans):
        entry = ops.setdefault(op, {"op_ns": 0, "untraced_ns": 0, "self_ns": {},
                                    "calls": {}, "ns": {}, "count": {}})
        self_ns = end - start - child_ns[sid]
        if name == "op":
            entry["op_ns"] = end - start
            entry["untraced_ns"] = self_ns
            continue
        lay = name.split(".", 1)[0]
        entry["self_ns"][lay] = entry["self_ns"].get(lay, 0) + self_ns
        entry["calls"][name] = entry["calls"].get(name, 0) + 1
        entry["ns"][name] = entry["ns"].get(name, 0) + end - start
        if count is not None:
            entry["count"][name] = entry["count"].get(name, 0) + count
    return ops


class Patch:
    """Installs the recorder's wrappers; ``restore`` puts the originals back."""

    def __init__(self, recorder: Recorder):
        self._saved: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "freqbin" or n.startswith("freqbin."))]
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:  # never imported, so never called
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, recorder.wrap(original, name, count))
                continue
            original = getattr(owner, attr)
            wrapper = recorder.wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()
