"""Machine-speed probes: fixed pieces of work, timed.

The cores this benchmark was written on change speed by up to 1.7 times,
within a second and over minutes, with nothing inside the machine to
show for it.  A probe runs next to every timed op; an op's time is
divided by the probe's slowness around it (probe time over its nominal
time), so the bounded metrics follow the program and not the speed of
the core at that moment.

Each probe does the kind of work its workload's ops do but calls nothing
of freqbin, so a change to the package cannot move it:

- ``interpreter``, for the in-process workloads: the interpreter-bound
  inner loops they spend their time in (dicts keyed by occupation
  tuples, complex multiply-adds, Gray-code updates).  Standard library
  only.
- ``process``, for ``cli_manifests``, whose ops are mostly interpreter
  start and imports: a fresh interpreter that imports numpy.  These ops
  follow the interpreter probe only about half as much as they slow.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: Probe times, in ms, at the nominal speed every timing is scaled to.
INTERPRETER_NOMINAL_MS = 50.0
PROCESS_NOMINAL_MS = 200.0
ROUNDS = 80
PHOTONS = 5
COLUMN = (0.6 + 0.1j, -0.3 + 0.5j, 0.2 - 0.4j, 0.1 + 0.1j)


def _expand() -> complex:
    """Expand (sum_j c_j a_j^dag)^PHOTONS over four modes, monomial by
    monomial, as ``fock.apply_transform`` does."""
    terms = {(0, 0, 0, 0): 1.0 + 0.0j}
    for _ in range(PHOTONS):
        nxt: dict = {}
        for vec, coef in terms.items():
            for j, c in enumerate(COLUMN):
                new = list(vec)
                new[j] += 1
                key = tuple(new)
                nxt[key] = nxt.get(key, 0.0) + coef * c
        terms = nxt
    return sum(terms.values())


def _gray(n: int = 8) -> complex:
    """Ryser-style Gray-code walk with row sums kept in a list."""
    rows = [0.0j] * 4
    total = 0.0j
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        diff = gray ^ prev
        j = diff.bit_length() - 1
        c = COLUMN[j & 3]
        sign = 1.0 if gray & diff else -1.0
        rows = [r + sign * c for r in rows]
        total += rows[0] * rows[1] * rows[2] * rows[3]
        prev = gray
    return total


def interpreter() -> float:
    """Slowness now: time of the fixed pure-Python work over nominal."""
    t0 = time.monotonic_ns()
    acc = 0.0j
    for _ in range(ROUNDS):
        acc += _expand() + _gray()
    if acc != acc:  # never true; keeps the result alive
        raise AssertionError
    return (time.monotonic_ns() - t0) / 1e6 / INTERPRETER_NOMINAL_MS


def process() -> float:
    """Slowness now: time of a fresh interpreter importing numpy over
    nominal."""
    t0 = time.monotonic_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return (time.monotonic_ns() - t0) / 1e6 / PROCESS_NOMINAL_MS
