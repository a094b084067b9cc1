"""Long check of the count sampler against numpy's generator.

Draws seeded records with `freqbin.counting.sample_grid` over grids of
1x1 to 401x4 records, with Poisson means in every regime of numpy's
rule (0, multiplication below 10, exactly 10, PTRS from 10 to 40 where
its log test is frequent, and 40 to 1e9), and checks every record
against the four draws of np.random.default_rng(seed).  The sampler
reimplements numpy's seed hash, PCG64 and Poisson rule, so this runs on
each numpy the package supports.  Exits 1 at the first mismatch.

    PYTHONPATH=src python tests/sampler_equivalence.py [RECORDS]

RECORDS (default 100000) is the least number of records drawn.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np

from freqbin.counting import DetectorSpec, SourceSpec, sample_grid

#: (rows, columns) of the grids, drawn in turn.
SHAPES = [(1, 1), (1, 4), (2, 3), (4, 4), (41, 2), (41, 4), (401, 2), (401, 4)]


def _mean(rng: random.Random, positive: bool = False) -> float:
    """A Poisson mean from one of numpy's sampling regimes."""
    regime = rng.randrange(1 if positive else 0, 5)
    if regime == 0:
        return 0.0
    if regime == 1:
        return rng.uniform(1e-6, 10.0) if rng.random() < 0.9 else rng.uniform(9.0, 10.0)
    if regime == 2:
        return 10.0
    if regime == 3:
        return rng.uniform(10.0, 40.0)
    return 10.0 ** rng.uniform(math.log10(40.0), 9.0)


def _check_grid(rng: random.Random, shape: tuple[int, int], first_seed: int) -> int:
    """Draw one grid and compare each record; the number of records."""
    n = shape[0] * shape[1]
    singles, car = _mean(rng, positive=True), rng.choice([math.inf, 2.0, 25.0])
    d = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
    s = SourceSpec(pair_rate_hz=singles, car=car)
    p = np.array([min(_mean(rng) / singles, 1.0) for _ in range(n)])
    w = np.array([_mean(rng) / (singles / car) if math.isfinite(car) else 1.0
                  for _ in range(n)])
    seeds = [(first_seed + k) % 2**64 for k in range(n)]
    table = sample_grid(p.reshape(shape), d, s, np.array(seeds, dtype=np.uint64).reshape(shape),
                        w.reshape(shape))
    for k, (rec, seed) in enumerate(zip((r for row in table for r in row), seeds)):
        gen = np.random.default_rng(seed)
        means = (rec.expected_true, rec.expected_accidental, singles, singles)
        want = [int(gen.poisson(lam)) for lam in means]
        got = [rec.true_coincidences, rec.accidental_coincidences, rec.singles_a, rec.singles_b]
        if got != want:
            print(f"mismatch: grid {shape}, record {k}, seed {seed}, means {means}: "
                  f"sampled {got}, default_rng {want}")
            sys.exit(1)
    return n


def main(records: int) -> None:
    rng = random.Random(20241)
    drawn = grids = 0
    while drawn < records:
        shape = SHAPES[grids % len(SHAPES)]
        drawn += _check_grid(rng, shape, rng.randrange(2**64))
        grids += 1
    print(f"identical: {drawn} records in {grids} grids, numpy {np.__version__}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100_000)
