"""Run one levylab benchmark workload and print its metrics.

    python3 bench/run.py --workload jump_ensemble --seed 1 --seconds 30 --trace 0

The run sets levylab up several times (a fresh import of the package from
``src/`` and the workload's models and problems), computes the reference
values apart from the program, then repeats whole rounds of the workload's
operations on the seed's inputs until ``--seconds`` have passed, checking
every round's outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  A traced run also writes its spans under ``bench/out/``.
"""

from __future__ import annotations

import os

# single-threaded: no BLAS or OpenMP worker threads beside the one that runs the load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles
from tracing import LAYER_UNITS, Tracer, diff, instrument, instrument_problem, layer_metrics
from workloads import ALPHA, BIG_R, WORKLOADS, Clock, Z, check

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
LAYERS = ("levy_noise", "sde_model", "integrator", "pide_zvonkin", "ergodicity")
SETUPS = 11

UNITS = {"wall_s": "s", "path_steps_per_s": "path-steps/s", "setup_s": "s", "peak_rss_mb": "MB"}


def fresh_levylab():
    """Import levylab's layers anew, dropping any copy a previous set-up loaded."""
    for name in [m for m in sys.modules if m == "levylab" or m.startswith("levylab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{name: importlib.import_module(f"levylab.{name}") for name in LAYERS})


def digest(result):
    h = hashlib.sha256()
    for key in sorted(result):
        h.update(key.encode())
        h.update(np.ascontiguousarray(result[key]).tobytes())
    return h.hexdigest()


def run_round(workload, lv, state, inp, adopt, tracer):
    clock = Clock()
    out, failed = {}, []
    start = time.perf_counter()
    for name, op in workload.operations(lv, state, inp, clock, adopt):
        if tracer:
            tracer.open(f"bench.{workload.name}.{name}")
        try:
            out[name] = op()
        except Exception:
            # a failed operation is counted and its checks skipped; the run goes on
            traceback.print_exc(file=sys.stderr)
            failed.append(name)
        finally:
            if tracer:
                tracer.close()
    return out, failed, time.perf_counter() - start, clock


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "levylab" / "__init__.py").is_file():
        print(f"levylab sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]()

    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        lv = fresh_levylab()
        state = workload.build(lv)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(setup_times)

    inp = workload.inputs(args.seed)
    ref = workload.reference()
    checks_spec = workload.checks(inp, ref)
    big_jump_rate = oracles.large_jump_rate(ALPHA, BIG_R)

    tracer = Tracer() if args.trace else None
    adopt = (lambda q: instrument_problem(q, tracer)) if tracer else (lambda q: q)
    if tracer:
        instrument(lv, tracer)
        for p in state.problems:
            instrument_problem(p, tracer)

    walls, rates, layers, results = [], [], [], []
    first_digest = None
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        before = tracer.snapshot() if tracer else None
        out, bad, wall, clock = run_round(workload, lv, state, inp, adopt, tracer)
        attempted += len(out) + len(bad)
        failed += len(bad)
        walls.append(wall)
        rates.append(clock.rate())
        round_checks = []
        for needs, fn in checks_spec:
            if all(n in out for n in needs):
                round_checks.extend(fn(out))
        round_digest = {name: digest(res) for name, res in out.items()}
        if first_digest is None:
            first_digest = round_digest
        same = all(first_digest.get(k) == v for k, v in round_digest.items())
        round_checks.append(check("outputs repeat the first round bit for bit", same, f"round {len(walls)}"))
        if tracer:
            delta = diff(tracer.snapshot(), before)
            layers.append(layer_metrics(delta, clock.steps))
            jumps = delta["counters"].get("levy_noise.large_jumps", 0)
            horizon = delta["counters"].get("levy_noise.large_jump_horizon", 0.0)
            if horizon > 0:
                bound = Z * (big_jump_rate / horizon) ** 0.5
                rate = jumps / horizon
                round_checks.append(
                    check(
                        "spliced large-jump rate = nu(B_R^c)",
                        abs(rate - big_jump_rate) <= bound,
                        f"{jumps:g} jumps over {horizon:g}: {rate:.5f} vs {big_jump_rate:.5f} +- {bound:.5f}",
                    )
                )
        results.append(round_checks)
        if time.perf_counter() - start >= args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = setup_s + statistics.median(walls)
    all_checks = [c for rc in results for c in rc]
    correct = all(ok for _, ok, _ in all_checks)

    print(f"workload {workload.name}, seed {args.seed}, {len(walls)} rounds, trace {args.trace}")
    for name, ok, detail in results[0]:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    for name in sorted({name for name, ok, _ in all_checks if not ok}):
        print(f"  FAIL in some round: {name}")
    print(f"  attempted {attempted} operations, failed {failed}")
    print("  round wall times: " + " ".join(f"{w:.3f}" for w in walls) + " s")

    if tracer:
        metrics = {
            name: {"value": float(statistics.median(r[name] for r in layers)), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"trace-{workload.name}.npz")
        summary = {"workload": workload.name, "seed": args.seed, "traced_wall_s": wall_s, "rounds": layers}
        (OUT / f"trace-{workload.name}.json").write_text(json.dumps(summary, indent=1))
        print(f"  traced wall_s {wall_s:.4f} s (tracing included; not a metric)")
    else:
        values = {
            "wall_s": wall_s,
            "path_steps_per_s": statistics.median(rates),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": float(v), "unit": UNITS[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
