"""Benchmark of the mpdecomp CLI on seeded input families.

    python3 perfbench/run.py --workload decompose-h0 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 45     # every workload, one table
    python3 perfbench/run.py --smoke                          # data/*, a few seconds
    python3 perfbench/run.py --record-reference --workload decompose-h0 --seeds 0-21,9001

Run it from the repository root.  A run writes the workload's inputs as
``.mpfilt`` files, then calls ``mpdecomp.cli.main(argv)`` in this one
single-threaded process, one input after another (a closed loop with one
client), in whole passes over the workload's input pool for as long as the
next pass still fits in ``--seconds`` (at least one pass), so every input
is timed and checked equally often.  The first call is a warm-up and is
not timed.  Every output is checked by ``check.py``, which shares no
code with the program; a nonzero exit or a failed check counts as a failed
input and does not stop the run.

``--trace 0`` reports the end-to-end metrics: median and tail of the
per-input latencies (each input's median over its passes), inputs per
second, set-up time (median cold start of
``python -m mpdecomp decompose data/triangle.mpfilt`` in a fresh
interpreter) and peak resident memory.

Every time is reported at a fixed reference speed of the machine.  On a
shared host the speed of one core drifts by 20-40% over tens of seconds,
with other tenants' load, and a run of one minute cannot average that out.
So a fixed calibration kernel of the benchmark's own (no program code) is
timed just before each CLI call and each cold start, and each time is
scaled by ``CAL_REF_S`` over the median calibration time of the calls
around it.  A change to the program moves its times and leaves the
kernel's alone.  The raw wall-clock median and the run's speed factor are
printed beside the metrics.  ``--trace 1`` instead makes whole
passes over the input pool, calling each input once untraced and once
traced (alternating which goes first), and reports the per-layer metrics of
one pass over the first inputs of the pool plus the tracing overhead.
``--all`` runs each workload in a process of its own, so that each peak
resident memory is that workload's alone.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference"  # <workload>.json: input sha -> summand digest
SETUP_RUNS = 15
SETUP_ARGV = ["decompose", "data/triangle.mpfilt"]
# The traced run passes over the first inputs of the pool only.
TRACE_POOL = 32
# Times are reported as if the calibration kernel took this long: about its
# median on a 2-core Intel Xeon VM.  It only sets the scale; keep it fixed.
CAL_REF_S = 0.0091
# A call's speed is the median calibration time of this many calls on each
# side of it and its own, about two seconds of a run.
CAL_WINDOW = 5

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


def environment() -> Dict[str, str]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def load_program():
    """Import the CLI from the checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "mpdecomp" / "cli.py").is_file() or not (ROOT / "data" / "triangle.mpfilt").is_file():
        print(f"error: no mpdecomp sources under {src} or no data/triangle.mpfilt", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import mpdecomp.cli

    return mpdecomp.cli


class Input:
    """One input file with what the checker needs to judge its outputs."""

    def __init__(self, path: Path, argv: List[str]):
        self.path = path
        self.argv = [argv[0], str(path)] + argv[1:]
        self.text = path.read_text()
        self.sha = hashlib.sha256(self.text.encode()).hexdigest()[:16]
        self._expected = None

    def expected(self):
        """(axes, dimension grid) of the module the output must present."""
        if self._expected is None:
            self._expected = (None, None)  # grids cover 2 parameters only
            lines = (ln.split("#", 1)[0].strip() for ln in self.text.splitlines())
            if next(ln for ln in lines if ln).startswith("mppres"):
                rows, cgrades, cols = check.parse_mppres(self.text)
                if all(len(g) == 2 for g in rows + cgrades):
                    axes = [sorted({g[k] for g in rows + cgrades}) for k in range(2)]
                    self._expected = (axes, check.presented_dims(rows, cgrades, cols, axes))
            else:
                F = check.Filt(self.text)
                p = int(self.argv[self.argv.index("--dim") + 1]) if "--dim" in self.argv else 0
                if F.d == 2:
                    axes = F.axes()
                    self._expected = (axes, check.homology_dims(F, p, axes))
        return self._expected

    def check(self, out: str) -> str:
        """Raise CheckError on a wrong output; return the summand digest."""
        axes, expected = self.expected()
        if self.argv[0] == "export-pres":
            check.check_export(out, axes, expected)
            return ""
        return check.check_decompose(out, axes, expected)


class Outputs:
    """Distinct outputs per input, kept compressed until they are checked."""

    def __init__(self) -> None:
        self.seen: Dict[Tuple[int, bytes], bytes] = {}
        self.calls: List[Tuple[int, bytes, int]] = []

    def add(self, idx: int, code: int, out: str) -> None:
        data = out.encode()
        key = hashlib.blake2b(data, digest_size=16).digest()
        if (idx, key) not in self.seen:
            self.seen[(idx, key)] = zlib.compress(data, 1)
        self.calls.append((idx, key, code))

    def verdicts(self, inputs: List[Input], reference: Dict[str, str]):
        """(failed call count, first failure message).

        An input missing from the reference gets every check but the
        comparison of its summand digest.
        """
        bad: Dict[Tuple[int, bytes], str] = {}
        for (idx, key), blob in self.seen.items():
            inp = inputs[idx]
            try:
                digest = inp.check(zlib.decompress(blob).decode())
            except check.CheckError as exc:
                bad[(idx, key)] = f"{inp.path.name}: {exc}"
                continue
            want = reference.get(inp.sha)
            if digest and want is not None and want != digest:
                bad[(idx, key)] = f"{inp.path.name}: summands {digest}, reference {want}"
        failed = 0
        first = ""
        for idx, key, code in self.calls:
            if code != 0:
                failed += 1
                first = first or f"{inputs[idx].path.name}: exit code {code}"
            elif (idx, key) in bad:
                failed += 1
                first = first or bad[(idx, key)]
        return failed, first


_CAL_RNG = random.Random(1904)
_CAL_INTS = [_CAL_RNG.getrandbits(64) for _ in range(50000)]
_CAL_COLS = [_CAL_RNG.getrandbits(160) for _ in range(160)]


def calibration() -> float:
    """Wall time of a fixed kernel: dict, sort and bit-vector work like the program's.

    Its three parts slow down by different amounts when a neighbour loads
    the core: against the program's calls, the F2 column reduction on int
    bitmasks a little more, the sort and sum over 10 000 large ints a little
    less, and the dict of grade cells about the same.  Together they track
    the program on both gated workloads.
    """
    t0 = time.perf_counter()
    cells: Dict[Tuple[int, int], List[int]] = {}
    for i in range(3000):
        cells.setdefault((i * 7 % 53, i * 13 % 47), []).append(i)
    sorted(cells.items())
    sorted(_CAL_INTS[:10000])
    sum(_CAL_INTS[::14])
    for _ in range(4):
        pivots: Dict[int, int] = {}
        for col in _CAL_COLS:
            while col:
                low = col.bit_length() - 1
                if low not in pivots:
                    pivots[low] = col
                    break
                col ^= pivots[low]
    return time.perf_counter() - t0


def at_reference_speed(times: List[float], cals: List[float]) -> List[float]:
    """Each time scaled by CAL_REF_S over the calibration times around it."""
    out = []
    for i, t in enumerate(times):
        near = cals[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1]
        out.append(t * CAL_REF_S / statistics.median(near))
    return out


def cli_call(main, argv: List[str]) -> Tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed input, not the end of the run
            code = 99
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def measure_setup(outputs: Outputs, inputs: List[Input]) -> Tuple[float, float]:
    """Median time of a cold CLI start in a fresh interpreter: at reference speed, and raw."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "mpdecomp"] + SETUP_ARGV
    triangle = Input(ROOT / SETUP_ARGV[1], ["decompose"])
    inputs.append(triangle)
    times, cals = [], []
    for _ in range(SETUP_RUNS):
        cals.append(calibration())
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        outputs.add(len(inputs) - 1, proc.returncode, proc.stdout)
    return statistics.median(at_reference_speed(times, cals)), statistics.median(times)


def tail(latencies: List[float]) -> Tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, and its value."""
    n = len(latencies)
    s = sorted(latencies)
    if n <= 10:
        return 100, s[-1]
    q = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(q / 100 * n))
    return q, s[rank - 1]


def load_reference(workload: str) -> Dict[str, str]:
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def make_inputs(workload: str, seed: int, work: Path) -> List[Input]:
    argv = gen.FAMILIES[workload]["argv"]
    return [Input(p, argv) for p in gen.write_inputs(workload, seed, work)]


def run_plain(cli, workload: str, seed: int, seconds: float):
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    try:
        inputs = make_inputs(workload, seed, work)
        pool = len(inputs)
        outputs = Outputs()
        setup_s, raw_setup_s = measure_setup(outputs, inputs)

        calibration()
        _, code, out = cli_call(cli.main, inputs[0].argv)  # warm-up, not timed
        outputs.add(0, code, out)
        times: List[float] = []
        cals: List[float] = []
        passes = 0
        t_start = time.perf_counter()
        while True:
            for idx in range(pool):
                cals.append(calibration())
                dt, code, out = cli_call(cli.main, inputs[idx].argv)
                times.append(dt)
                outputs.add(idx, code, out)
            passes += 1
            wall = time.perf_counter() - t_start
            if wall + wall / passes > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        reference = load_reference(workload)
        failed, first = outputs.verdicts(inputs, reference)
        recorded = sum(1 for inp in inputs[:pool] if inp.sha in reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    adjusted = at_reference_speed(times, cals)
    # call k of the run is pass k // pool over input k % pool
    latencies = [statistics.median(adjusted[idx::pool]) for idx in range(pool)]
    raw_p50 = statistics.median(statistics.median(times[idx::pool]) for idx in range(pool))
    q, tail_s = tail(latencies)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "inputs_per_s": (len(adjusted) / sum(adjusted), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    attempted = len(outputs.calls)
    notes = [
        f"{passes} pass(es) over {pool} inputs in {wall:.1f} s; latency_tail_ms is p{q} of"
        f" {pool} per-input latencies, each the median of {passes} call(s)",
        f"at reference speed: calibration median {statistics.median(cals) * 1e3:.2f} ms against"
        f" {CAL_REF_S * 1e3:.2f} ms; wall-clock latency_p50 {raw_p50 * 1e3:.1f} ms and setup"
        f" {raw_setup_s:.3f} s; inputs_per_s counts CLI time only",
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} calls, setup and warm-up included)",
        f"summand reference: {recorded} of {pool} inputs recorded"
        if gen.FAMILIES[workload]["argv"][0] == "decompose"
        else "summand reference: not applicable (export-pres)",
    ]
    if first:
        notes.append(f"first failure: {first}")
    return attempted, failed, metrics, notes


def run_traced(cli, workload: str, seed: int, seconds: float):
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    try:
        inputs = make_inputs(workload, seed, work)[:TRACE_POOL]
        outputs = Outputs()
        _, code, out = cli_call(cli.main, inputs[0].argv)  # warm-up, not traced
        outputs.add(0, code, out)
        tracer = spans.Tracer()
        plain = traced = 0.0
        passes = 0
        t_start = time.perf_counter()
        while True:
            for idx, inp in enumerate(inputs):
                for traced_call in ((False, True) if idx % 2 == 0 else (True, False)):
                    if traced_call:
                        tracer.input_id = passes * len(inputs) + idx
                        spans.instrument(tracer)
                        try:
                            dt, code, out = tracer.call("cli.main", cli_call, cli.main, inp.argv)
                        finally:
                            tracer.unwrap_all()
                        tracer.counts["cli.output_bytes"] += len(out.encode())
                        traced += dt
                    else:
                        dt, code, out = cli_call(cli.main, inp.argv)
                        plain += dt
                    outputs.add(idx, code, out)
            passes += 1
            elapsed = time.perf_counter() - t_start
            if elapsed + elapsed / passes > seconds:
                break
        tracer.save(WORK / f"trace-{workload}.npz")
        failed, first = outputs.verdicts(inputs, load_reference(workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = spans.layer_metrics(tracer, passes)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")

    def ranked(shares: Dict[str, float]) -> str:
        return ", ".join(f"{layer} {v:.1%}" for layer, v in sorted(shares.items(), key=lambda kv: -kv[1]))

    traced_ms = passes * sum(metrics[f"{layer}.self_ms"][0] for layer in spans.LAYERS)
    inclusive = {
        layer: ms / traced_ms for layer, ms in tracer.layer_inclusive_ms().items() if layer != "cli"
    }

    attempted = len(outputs.calls)
    notes = [
        f"{passes} pass(es) over {len(inputs)} inputs, each input once untraced and once traced",
        "self-time shares: " + ranked({k.split(".")[0]: v for k, (v, _) in metrics.items() if k.endswith(".share")}),
        "inclusive shares (callees in other layers counted): " + ranked(inclusive),
        f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} calls)",
        f"spans written to {WORK.relative_to(ROOT)}/trace-{workload}.npz",
    ]
    if first:
        notes.append(f"first failure: {first}")
    return attempted, failed, metrics, notes


def run_smoke(cli) -> int:
    """Every data/* file through decompose, untraced and traced, checked."""
    inputs = []
    for path in sorted((ROOT / "data").iterdir()):
        # some data files tie grades on purpose, so the smoke pass perturbs
        if path.suffix == ".mppres":
            inputs.append(Input(path, ["decompose", "--perturb"]))
        elif path.suffix == ".mpfilt":
            for dim in ("0", "1"):
                inputs.append(Input(path, ["decompose", "--perturb", "--dim", dim]))
    outputs = Outputs()
    tracer = spans.Tracer()
    for idx, inp in enumerate(inputs):
        dt, code, out = cli_call(cli.main, inp.argv)
        outputs.add(idx, code, out)
        spans.instrument(tracer)
        try:
            _, traced_code, traced_out = tracer.call("cli.main", cli_call, cli.main, inp.argv)
        finally:
            tracer.unwrap_all()
        outputs.add(idx, traced_code, traced_out)
        shown = " ".join([inp.argv[0], inp.path.name] + inp.argv[2:])
        print(f"{shown}: exit {code}, {dt * 1e3:.1f} ms")
    failed, first = outputs.verdicts(inputs, {})
    distinct = len(outputs.seen)
    print(f"smoke: {len(outputs.calls)} calls, {failed} failed, {len(tracer.idx)} spans traced,"
          f" {distinct} distinct outputs for {len(inputs)} inputs")
    if distinct != len(inputs):
        print("tracing changed an output")
        return 1
    if first:
        print(f"first failure: {first}")
    return 1 if failed else 0


def result_line(attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in a child process of its own, then one result line."""
    attempted = failed = 0
    metrics: Dict[str, Tuple[float, str]] = {}
    for workload in sorted(gen.FAMILIES):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[1:-1]), flush=True)  # the environment line is printed once
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}/{name}"] = (m["value"], m["unit"])
    print(result_line(attempted, failed, metrics))
    return 0


def record_reference(cli, workload: str, seeds: List[int]) -> int:
    """Run every input of the given seeds once and store its summand digest."""
    ref = load_reference(workload)
    REFERENCE.mkdir(exist_ok=True)
    for seed in seeds:
        work = WORK / f"record-{workload}-s{seed}-p{os.getpid()}"
        try:
            for inp in make_inputs(workload, seed, work):
                _, code, out = cli_call(cli.main, inp.argv)
                if code != 0:
                    print(f"seed {seed} {inp.path.name}: exit code {code}", file=sys.stderr)
                    return 1
                ref[inp.sha] = inp.check(out)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {workload} seed {seed}", flush=True)
        text = json.dumps(ref, indent=0, sort_keys=True) + "\n"
        (REFERENCE / f"{workload}.json").write_text(text)
    return 0


def parse_seeds(text: str) -> List[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark the mpdecomp CLI.")
    ap.add_argument("--workload", choices=sorted(gen.FAMILIES))
    ap.add_argument("--all", action="store_true", help="run every workload, each in a process of its own")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seeds", default=f"0-21,{gen.HELD_OUT_SEED}")
    args = ap.parse_args()

    cli = load_program()
    print("environment: " + json.dumps(environment(), sort_keys=True))
    if args.smoke:
        return run_smoke(cli)
    if args.record_reference:
        if not args.workload:
            ap.error("--record-reference needs --workload")
        return record_reference(cli, args.workload, parse_seeds(args.seeds))
    if not args.all and not args.workload:
        ap.error("give --workload, --all, --smoke or --record-reference")

    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    attempted, failed, metrics, notes = (run_traced if args.trace else run_plain)(
        cli, args.workload, args.seed, args.seconds
    )
    print(f"== {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(result_line(attempted, failed, metrics))
    return 0

if __name__ == "__main__":
    sys.exit(main())
