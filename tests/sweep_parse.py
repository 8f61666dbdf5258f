"""Hand-run sweep: the line loop against parse_filtration, and where mutations go.

Run from the repository root::

    PYTHONPATH=src python tests/sweep_parse.py [--mutations N] [--repeat R]

The inputs are the seed-1 and seed-9001 pools of the decompose-h0 and
export-h1 workloads, from ``perfbench/gen.py`` (imported read-only).  Per
pool it prints the time per input of the line loop alone
(``filtration._parse_lines``) and of ``parse_filtration``, the best of
``--repeat`` passes (7 by default).  Then it makes ``--mutations`` seeded
line mutations of those pools (1 500 by default, ``mutate_lines`` of
``tests/test_filtration.py``), runs each through both and prints how many the
bulk route accepted and declined and how many the loop refused.  Any
disagreement between the two, in result or in refusal message, stops the
sweep.  On a checkout without a bulk route both columns time the same
parser and nothing counts as accepted in bulk.  The file is not a test
module, so pytest does not collect it.
"""
from __future__ import annotations

import argparse
import random
import time
from collections import Counter

from mpdecomp import filtration, parse_filtration
from test_filtration import GEN, mutate_lines, outcome

WORKLOADS = ("decompose-h0", "export-h1")
SEEDS = (1, 9001)
loop = getattr(filtration, "_parse_lines", parse_filtration)
bulk = getattr(filtration, "_bulk", lambda text: None)


def per_input_us(parse, texts, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for text in texts:
            parse(text)
        best = min(best, time.perf_counter() - start)
    return best / len(texts) * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mutations", type=int, default=1500)
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args()
    pools = {(w, s): [text for _, text in GEN.generate(w, s)] for w in WORKLOADS for s in SEEDS}
    print(f"{'pool':<20} {'inputs':>6} {'loop us':>9} {'parse us':>9} {'change':>7}")
    for (workload, seed), texts in pools.items():
        t_loop = per_input_us(loop, texts, args.repeat)
        t_parse = per_input_us(parse_filtration, texts, args.repeat)
        name = f"{workload} s{seed}"
        print(f"{name:<20} {len(texts):>6} {t_loop:>9.1f} {t_parse:>9.1f} {t_parse / t_loop - 1:>+7.1%}",
              flush=True)
    rng = random.Random("sweep-parse")
    plain = [text for texts in pools.values() for text in texts]
    tally = Counter()
    for _ in range(args.mutations):
        text = mutate_lines(rng, rng.choice(plain))
        expected = outcome(loop, text)
        got = bulk(text)
        if got is not None and got != expected or outcome(parse_filtration, text) != expected:
            raise SystemExit(f"bulk route and loop disagree on:\n{text}")
        tally["accepted in bulk" if got is not None else "declined"] += 1
        tally["refused by the loop"] += isinstance(expected, str)
    print(f"{args.mutations} mutations: " + ", ".join(
        f"{tally[k]} {k}" for k in ("accepted in bulk", "declined", "refused by the loop")
    ))


if __name__ == "__main__":
    main()
