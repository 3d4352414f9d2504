"""stabmor benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stabmor is imported from its
``src`` directory. ``--workload all`` runs every workload in a fresh process,
one after the other, and prints a table. A single workload builds its
full-order model several times (``setup_s`` is the median), then runs whole
rounds until ``--seconds`` of rounds have been measured, checks every
round's outputs with the independent oracles in ``oracles.py``, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` rounds alternate untraced and traced, the metrics are
the per-layer ones, and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread (at most nproc on any machine) and one frequency-sweep
# worker for every run; set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["STABMOR_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Before every round the full-order model is built again until the batch
# has taken SETUP_BATCH_S, at least once and at most SETUP_BATCH_MAX times,
# so that setup_s is a median over the whole run, like the round metrics.
SETUP_BATCH_S, SETUP_BATCH_MAX = 0.1, 40

E2E_UNITS = {"setup_s": "s", "sweep_s": "s", "first_rom_s": "s",
             "roms_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def import_program():
    """Import stabmor from this checkout's sources, and nowhere else."""
    if not (SRC / "stabmor" / "__init__.py").is_file():
        sys.exit(f"error: no stabmor sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import stabmor
    if pathlib.Path(stabmor.__file__).resolve().parent != SRC / "stabmor":
        sys.exit(f"error: stabmor was imported from {stabmor.__file__}")
    from stabmor import (analysis, benchgen, cli, dynsys, linalg, nonlinear,
                         projection, stabilize)
    return {"benchgen": benchgen, "dynsys": dynsys, "linalg": linalg,
            "projection": projection, "stabilize": stabilize,
            "nonlinear": nonlinear, "analysis": analysis, "cli": cli}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    modules = import_program()
    import spans
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    out_dir = OUT / name / f"seed-{seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, out_dir)
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer, modules)

    def window(label, traced):
        return tracer.window(label) if traced else contextlib.nullcontext()

    setup_times = []

    def setup_batch():
        batch = []
        while not batch or (sum(batch) < SETUP_BATCH_S
                            and len(batch) < SETUP_BATCH_MAX):
            with window("setup", trace):
                t0 = time.perf_counter()
                fom = wl.setup()
                batch.append(time.perf_counter() - t0)
        setup_times.extend(batch)
        return fom

    fom = setup_batch()
    refs = wl.references(fom)
    if tracer:
        wl.instrument(fom, tracer)

    # whole rounds until the measured time would pass --seconds; a traced
    # run alternates untraced and traced rounds to measure the overhead
    rounds, problems, measured = [], [], 0.0
    while True:
        if rounds:
            setup_batch()
        traced = trace and len(rounds) % 2 == 1
        with window("round", traced):
            rnd = wl.run_round(fom, refs)
        if traced:
            tracer.windows[-1][3].update(rnd.counts)
        problems += rnd.check()
        rounds.append((rnd, traced))
        measured += rnd.sweep_s
        if (len(rounds) >= (2 if trace else 1)
                and measured * (1 + 1 / len(rounds)) > seconds):
            break

    plain = [r for r, t in rounds if not t]
    median = statistics.median
    if trace:
        values = spans.layer_metrics(
            tracer, median(r.sweep_s for r in plain),
            median(r.sweep_s for r, t in rounds if t))
        tracer.write(out_dir / "trace.json",
                     {"workload": name, "seed": seed, "metrics": values})
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
    else:
        values = {
            "setup_s": median(setup_times),
            "sweep_s": median(r.sweep_s for r in plain),
            "first_rom_s": median(r.first_rom_s for r in plain),
            "roms_per_s": median((r.attempted - r.failed) / r.items_s
                                 for r in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}

    print(f"workload {name}, seed {seed}: {len(setup_times)} set-ups, "
          f"{len(rounds)} rounds ({sum(t for _, t in rounds)} traced), "
          f"{measured:.2f} s measured")
    print("rounds (sweep_s, first_rom_s, roms_per_s): " + json.dumps(
        [[r.sweep_s, r.first_rom_s, (r.attempted - r.failed) / r.items_s]
         for r, _ in rounds]))
    if wl.summary():
        print(wl.summary())
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"oracle checks: {'all passed' if not problems else len(problems)}")
    return {"correct": not problems,
            "attempted": sum(r.attempted for r, _ in rounds),
            "failed": sum(r.failed for r, _ in rounds),
            "metrics": metrics}


def run_all(argv_tail: list[str]) -> dict:
    """Each workload in a fresh process, one after the other."""
    import_program()
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               *argv_tail], stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"    {metric:28s} {entry['value']:14.6g} {entry['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(["--seed", str(args.seed), "--seconds",
                          str(args.seconds), "--trace", str(args.trace)])
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
