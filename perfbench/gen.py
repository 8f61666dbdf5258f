"""Seeded generator of the benchmark's input filtrations.

Every input is a plain ``mpfilt`` file of a random one-critical
2-parameter simplicial complex: vertices at random grades, edges on random
vertex pairs at the least upper bound of their endpoints plus a small
jitter, and triangles on closed edge triangles at the least upper bound of
their edges plus a jitter.  Exact grade ties within one dimension are
rejected by resampling, so the decomposition is the module's unique one and
the CLI never needs ``--perturb``.  The ``decompose-wide`` family goes
further and keeps every edge coordinate distinct on each axis, which rules
out two degree-1 cycle generators born at the same grade.

The same (workload, seed) always yields byte-identical files.  Run it
standalone with::

    python3 perfbench/gen.py --workload decompose-h0 --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import random
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Tuple

# Seed kept out of every tuning run; confirm a later performance claim on it.
HELD_OUT_SEED = 9001

# nv: vertex count of every input.  One size per family on purpose: a mix of
# sizes makes the cost distribution multimodal, and the median call latency
# then jumps between the modes from run to run.  pool: inputs per seed, many
# cheap ones rather than a few costly ones, so that the median over one seed's
# pool varies little from seed to seed (by 1-3% at these sizes).  One pass
# over the decompose-h0 or export-h1 pool takes about 35 s on a 2-core x86
# VM, so a 45 s run makes one pass; decompose-wide, run by hand, makes two.
# span: vertex coordinates lie in [0, span).
# edges/tris: counts as a multiple of nv.  jitter: edge and triangle grades
# sit at the least upper bound of their faces plus U{0..jitter} per
# coordinate.
FAMILIES: Dict[str, dict] = {
    "decompose-h0": dict(
        nv=14, pool=180, span=20, edges=3.0, tris=4.0, jitter=2,
        distinct_axes=False, argv=["decompose", "--dim", "0"],
    ),
    "decompose-wide": dict(
        nv=8, pool=88, span=60, edges=4.0, tris=4.0, jitter=2,
        distinct_axes=True, argv=["decompose", "--dim", "1"],
    ),
    "export-h1": dict(
        nv=30, pool=112, span=1000, edges=3.0, tris=0.5, jitter=2,
        distinct_axes=False, argv=["export-pres", "--dim", "1"],
    ),
}

Grade = Tuple[int, int]


def _lub(*gs: Grade) -> Grade:
    return (max(g[0] for g in gs), max(g[1] for g in gs))


class _Taken:
    """Grades already used in one dimension, optionally per axis too."""

    def __init__(self, distinct_axes: bool):
        self.points = set()
        self.axes = (set(), set()) if distinct_axes else None

    def free(self, g: Grade) -> bool:
        if g in self.points:
            return False
        return self.axes is None or (g[0] not in self.axes[0] and g[1] not in self.axes[1])

    def add(self, g: Grade) -> None:
        self.points.add(g)
        if self.axes is not None:
            self.axes[0].add(g[0])
            self.axes[1].add(g[1])


def _place(rng: random.Random, base: Grade, jitter: int, taken: _Taken, tries: int = 64):
    """A free grade at base + U{0..jitter}^2, widening the jitter on repeats."""
    for k in range(tries):
        j = jitter + k // 8
        g = (base[0] + rng.randint(0, j), base[1] + rng.randint(0, j))
        if taken.free(g):
            taken.add(g)
            return g
    return None


def random_filtration(rng: random.Random, nv: int, fam: dict) -> str:
    span, jitter = fam["span"], fam["jitter"]
    vtaken = _Taken(fam["distinct_axes"])
    vgrades: List[Grade] = []
    while len(vgrades) < nv:
        g = (rng.randrange(span), rng.randrange(span))
        if vtaken.free(g):
            vtaken.add(g)
            vgrades.append(g)

    etaken = _Taken(fam["distinct_axes"])
    pairs = list(combinations(range(nv), 2))
    rng.shuffle(pairs)
    edges: Dict[Tuple[int, int], Grade] = {}
    for u, v in pairs:
        if len(edges) >= int(fam["edges"] * nv):
            break
        g = _place(rng, _lub(vgrades[u], vgrades[v]), jitter, etaken)
        if g is not None:
            edges[(u, v)] = g

    candidates = [
        t for t in combinations(range(nv), 3)
        if (t[0], t[1]) in edges and (t[0], t[2]) in edges and (t[1], t[2]) in edges
    ]
    rng.shuffle(candidates)
    ttaken = _Taken(False)
    tris: List[Tuple[Tuple[int, int, int], Grade]] = []
    for a, b, c in candidates:
        if len(tris) >= int(fam["tris"] * nv):
            break
        base = _lub(edges[(a, b)], edges[(a, c)], edges[(b, c)])
        g = _place(rng, base, jitter, ttaken)
        if g is not None:
            tris.append(((a, b, c), g))

    lines = ["mpfilt 1", "params 2"]
    for g in vgrades:
        lines.append(f"s {g[0]} {g[1]} :")
    edge_id: Dict[Tuple[int, int], int] = {}
    for (u, v), g in edges.items():
        edge_id[(u, v)] = nv + len(edge_id)
        lines.append(f"s {g[0]} {g[1]} : {u} {v}")
    for (a, b, c), g in tris:
        ids = sorted((edge_id[(a, b)], edge_id[(a, c)], edge_id[(b, c)]))
        lines.append(f"s {g[0]} {g[1]} : " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> List[Tuple[str, str]]:
    """(file name, mpfilt text) for every input of one workload and seed."""
    fam = FAMILIES[workload]
    out = []
    for idx in range(fam["pool"]):
        rng = random.Random(f"{workload}:{seed}:{idx}")
        out.append((f"{workload}-s{seed}-{idx:03d}.mpfilt", random_filtration(rng, fam["nv"], fam)))
    return out


def write_inputs(workload: str, seed: int, out_dir: Path) -> List[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in generate(workload, seed):
        path = out_dir / name
        path.write_text(text)
        paths.append(path)
    return paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(FAMILIES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    for path in write_inputs(args.workload, args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
