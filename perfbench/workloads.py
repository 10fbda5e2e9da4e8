"""Workload definitions: the inputs each workload hands to the certify path.

A workload is one ``run_suite`` call (serial, ``workers=1``) followed by
``emit_report``.  The seed only permutes the order in which signatures are
handed to the program and drives the benchmark's own spot checks; it never
changes which cases run, so the work per run is the same for every seed.
"""

from __future__ import annotations

import itertools
import random


def _sweep(*lengths: int) -> tuple[str, ...]:
    return tuple(
        "".join(s) for n in lengths for s in itertools.product("+-", repeat=n)
    )


# workload -> (suite, n_max, signatures; None runs the whole shipped fleet).
# gen-set stops at N = 4 with skew count 0 and 1: an N = 4 case with two or
# more skew entries takes 8.7-17.5 s, over a quarter of the run on its own,
# and would push the runs past their time budget.
WORKLOADS = {
    "genset-n4": ("gen-set", 4, _sweep(1, 2, 3) + ("++++", "+++-", "++-+", "+-++", "-+++")),
    "oracle-n3": ("oracle-equiv", 3, _sweep(1, 2, 3)),
    "tensor-fleet": ("tensoriality", 3, None),
}


def suite_call(workload: str, seed: int) -> tuple[str, int, list[str] | None]:
    """(suite, n_max, signature texts in a seed-dependent order, or None)."""
    suite, n_max, texts = WORKLOADS[workload]
    if texts is None:
        return suite, n_max, None
    texts = list(texts)
    random.Random(f"perfbench:{workload}:{seed}").shuffle(texts)
    return suite, n_max, texts
