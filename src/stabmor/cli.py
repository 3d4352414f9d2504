"""Command-line front-end: generate | reduce | simulate | analyze.

Every invocation writes a ``report.json`` with the complete settings of
the run so it can be reproduced exactly; identical settings and seed give
byte-identical CSV outputs.

Exit codes: 0 success, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

import numpy as np

from . import analysis, benchgen, projection, stabilize
from .config import DEFAULT
from .dynsys import (
    LinearSystem,
    load_system,
    save_system,
    spectral_abscissa,
    stability_report,
)
from .errors import SingularReducedMass, StabmorError
from .nonlinear import NonlinearSystem

__all__ = ["main", "RunConfig"]

USAGE_ERROR = 2
NUMERICAL_ERROR = 3
# default top of the analyze Bode grid, in multiples of |spectral abscissa|
BODE_OMEGA_FACTOR = 1e3


@dataclasses.dataclass
class RunConfig:
    """Everything needed to rerun one CLI invocation."""

    command: str
    bundle: str | None = None
    generator: dict | None = None
    method: str = "arnoldi"
    r_list: list | None = None
    s0: float = 1.0
    stabilize: bool = False
    delta: float = DEFAULT.delta
    adi: dict | None = None
    input_spec: str = "step"
    horizon: float = 10.0
    integrator: str = "trapezoid:1000"
    omega_max: float | None = None
    omega_min: float | None = None
    points: int | None = None
    compare: str | None = None
    out: str = "."
    seed: int = 0


def _write_report(out_dir: pathlib.Path, config: RunConfig, extra: dict) -> None:
    payload = {"version": analysis.CSV_VERSION,
               "settings": dataclasses.asdict(config), **extra}
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parse_input(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "sine":
        if not arg:
            raise ValueError("sine input needs a period, e.g. sine:1e-3")
        return analysis.make_input("sine", period=float(arg))
    if kind in ("step", "zero"):
        if arg:
            raise ValueError(f"input {kind!r} takes no argument")
        return analysis.make_input(kind)
    raise ValueError(f"unknown input spec {spec!r} (use sine:T, step, zero)")


def _parse_r_list(spec: str, n: int) -> list[int]:
    values: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if ":" in token:
            lo, hi = token.split(":", 1)
            values.extend(range(int(lo), int(hi) + 1))
        elif token:
            values.append(int(token))
    if not values:
        raise ValueError("empty r list")
    for r in values:
        if r < 1:
            raise ValueError(f"reduced order must be at least 1, got {r}")
        if r > n:
            raise ValueError(f"reduced order {r} exceeds system dimension {n}")
    return sorted(set(values))


def _print_stability_summary(system: LinearSystem) -> dict:
    rep = stability_report(system, ell=min(system.n, 16))
    alpha = None
    if system.n <= DEFAULT.dense_cap:
        alpha = rep.alpha
        print(f"spectral abscissa: {alpha:.6e}")
    k_note = ">=" if rep.incomplete else "="
    print(f"non-negative symmetric-part eigenvalues: k {k_note} {rep.k}, "
          f"mu_max = {rep.mu_max:.6e}")
    return {"alpha": alpha, "k": rep.k, "k_is_lower_bound": rep.incomplete,
            "mu_max": rep.mu_max}


def _load_bundle(path: str):
    """Returns (linear system, nonlinear system or None, manifest)."""
    directory = pathlib.Path(path)
    manifest = json.loads((directory / "manifest.json").read_text())
    sys_lin = load_system(directory)
    sys_nl = None
    meta = manifest.get("nonlinear")
    if meta is not None:
        if meta.get("kind") != "cubic_msd":
            raise ValueError(f"unknown nonlinear bundle kind {meta.get('kind')!r}")
        sys_nl = benchgen.gen_cubic_msd(
            masses=meta["masses"], mass=meta["mass"],
            stiffness=meta["stiffness"], damping=meta["damping"],
            gamma=meta["gamma"], input_node=meta["input_node"],
            output_node=meta["output_node"])
    return sys_lin, sys_nl, manifest


def cmd_generate(args) -> int:
    out_dir = pathlib.Path(args.out)
    gen_params: dict
    if args.kind == "msd":
        output_node = (args.output_node if args.output_node >= 0
                       else args.masses - 1)
        gen_params = {"kind": "msd", "masses": args.masses, "mass": args.mass,
                      "stiffness": args.stiffness, "damping": args.damping,
                      "input_node": args.input_node,
                      "output_node": output_node}
        system = benchgen.gen_msd_chain(
            masses=args.masses, mass=args.mass, stiffness=args.stiffness,
            damping=args.damping, input_node=args.input_node,
            output_node=output_node)
    elif args.kind == "nonnormal":
        gen_params = {"kind": "nonnormal", "n": args.n, "lam_min": args.lam_min,
                      "lam_max": args.lam_max, "kappa": args.kappa,
                      "density": args.density, "seed": args.seed,
                      "require_nonnormal": not args.allow_dissipative}
        system = benchgen.gen_nonnormal_stable(
            n=args.n, lam_min=args.lam_min, lam_max=args.lam_max,
            kappa=args.kappa, density=args.density, seed=args.seed,
            require_nonnormal=not args.allow_dissipative)
    elif args.kind == "convdiff":
        gen_params = {"kind": "convdiff", "n": args.n,
                      "diffusion": args.diffusion, "velocity": args.velocity,
                      "grade": args.grade}
        system = benchgen.gen_convection_diffusion(
            n=args.n, diffusion=args.diffusion, velocity=args.velocity,
            grade=args.grade)
    else:  # cubic-msd
        output_node = (args.output_node if args.output_node >= 0
                       else args.masses - 1)
        gen_params = {"kind": "cubic_msd", "masses": args.masses,
                      "mass": args.mass, "stiffness": args.stiffness,
                      "damping": args.damping, "gamma": args.gamma,
                      "input_node": args.input_node,
                      "output_node": output_node}
        nl = benchgen.gen_cubic_msd(
            masses=args.masses, mass=args.mass, stiffness=args.stiffness,
            damping=args.damping, gamma=args.gamma,
            input_node=args.input_node, output_node=output_node)
        from .nonlinear import linearize
        system = linearize(nl)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_system(system, out_dir)
    if args.kind == "cubic-msd":
        manifest_path = out_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["nonlinear"] = gen_params
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote system bundle (n = {system.n}) to {out_dir}")
    summary = _print_stability_summary(system)
    config = RunConfig(command="generate", generator=gen_params,
                       out=str(out_dir), seed=getattr(args, "seed", 0))
    _write_report(out_dir, config, {"stability": summary, "n": system.n})
    return 0


def _build_basis(system, method, r_max, s0, input_fun, horizon, seed):
    if method == "arnoldi":
        return projection.arnoldi_basis(system, r_max, s0=s0)
    traj = analysis.integrate_adaptive(system, input_fun, np.zeros(system.n),
                                       (0.0, horizon), harvest_snapshots=True)
    return projection.pod_basis(traj.snapshots, r_max)


def cmd_reduce(args) -> int:
    out_dir = pathlib.Path(args.out)
    system, system_nl, _ = _load_bundle(args.bundle)
    if system_nl is not None:
        raise ValueError("reduce operates on linear bundles; nonlinear ones "
                         "are handled through simulate")
    r_list = _parse_r_list(args.r, system.n)
    input_fun = _parse_input(args.input)
    adi = {"steps": args.adi_steps, "shifts": args.adi_shifts,
           "residual_tol": args.adi_tol}
    config = RunConfig(command="reduce", bundle=args.bundle,
                       method=args.method, r_list=r_list, s0=args.s0,
                       stabilize=args.stabilize, delta=args.delta, adi=adi,
                       input_spec=args.input, horizon=args.horizon,
                       integrator=f"trapezoid:{args.trapz_steps}",
                       out=str(out_dir), seed=args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    tol = DEFAULT.with_(lradi_steps=args.adi_steps,
                        lradi_num_shifts=args.adi_shifts,
                        lradi_residual=args.adi_tol)
    r_max = max(r_list)
    basis_full = _build_basis(system, args.method, r_max, args.s0, input_fun,
                              args.horizon, args.seed)
    if basis_full.r < r_max:
        print(f"basis deflated at dimension {basis_full.r}; "
              f"dropping larger r values", file=sys.stderr)
        r_list = [r for r in r_list if r <= basis_full.r]
    stab = None
    if args.stabilize:
        stab = stabilize.assemble_stabilizer(system, delta=args.delta,
                                             mode=args.mode, config=tol,
                                             seed=args.seed)
        stabilize.save_stabilizer(stab, out_dir / "stabilizer")

    fom_traj = analysis.integrate_trapezoidal(system, input_fun,
                                              np.zeros(system.n),
                                              (0.0, args.horizon),
                                              steps=args.trapz_steps,
                                              states=False)
    rows = []
    failures = 0
    roms_dir = out_dir / "roms"
    for r in r_list:
        sub = projection.ProjectionBasis(v=basis_full.v[:, :r],
                                         method=basis_full.method,
                                         details=basis_full.details)
        row: list = [r]
        try:
            try:
                conv = projection.galerkin_reduce(system, sub)
                alpha_conv = spectral_abscissa(conv.to_system())
            except SingularReducedMass:
                conv, alpha_conv = None, None
            row.append(alpha_conv)
            deliver = conv
            if args.stabilize:
                red = stabilize.stabilized_reduce(system, sub, stab, config=tol)
                alpha_stab = spectral_abscissa(red.to_system())
                row.append(alpha_stab)
                deliver = red
            else:
                row.append(None)

            if conv is not None:
                save_system(conv.to_system(),
                            roms_dir / f"r{r:03d}_conventional")
            if args.stabilize:
                save_system(red.to_system(), roms_dir / f"r{r:03d}_stabilized")

            if deliver is None:
                row.extend([None, None])
            else:
                deliver_alpha = (alpha_stab if args.stabilize else alpha_conv)
                if deliver_alpha is not None and deliver_alpha < 0.0:
                    row.append(analysis.h2_error(system, deliver,
                                                 config=tol).value)
                else:
                    row.append(None)  # H2 undefined for unstable models
                rom_traj = analysis.integrate_trapezoidal(
                    deliver, input_fun, np.zeros(r), (0.0, args.horizon),
                    steps=args.trapz_steps, states=False)
                max_err, _ = analysis.output_error(fom_traj, rom_traj)
                row.append(max_err)
        except StabmorError as exc:
            print(f"r = {r}: {exc}", file=sys.stderr)
            while len(row) < 5:
                row.append("FAIL")
            failures += 1
        rows.append(row)

    analysis.write_csv(out_dir / "error_sweep.csv",
                       ["r", "spectral_abscissa_conventional",
                        "spectral_abscissa_stabilized", "h2_error",
                        "max_output_error"], rows)
    extra = {"n": system.n, "failures": failures,
             "basis": {"method": basis_full.method, "r_max": basis_full.r,
                       "deflated": basis_full.deflated}}
    if stab is not None:
        extra["stabilizer"] = {"k": stab.k, "q": stab.q, "mode": stab.mode,
                               "mu_max": stab.mu_max, "delta": stab.delta}
    _write_report(out_dir, config, extra)
    print(f"wrote {out_dir / 'error_sweep.csv'} ({len(rows)} rows)")
    return NUMERICAL_ERROR if failures else 0


def cmd_simulate(args) -> int:
    out_dir = pathlib.Path(args.out)
    system, system_nl, _ = _load_bundle(args.bundle)
    target: LinearSystem | NonlinearSystem = (system_nl if system_nl is not None
                                              else system)
    input_fun = _parse_input(args.input)
    config = RunConfig(command="simulate", bundle=args.bundle,
                       input_spec=args.input, horizon=args.horizon,
                       integrator=args.integrator, out=str(out_dir),
                       seed=args.seed)
    kind, _, arg = args.integrator.partition(":")
    n = target.n
    x0 = np.zeros(n)
    if kind == "trapezoid":
        steps = int(arg) if arg else 1000
        traj = analysis.integrate_trapezoidal(target, input_fun, x0,
                                              (0.0, args.horizon), steps=steps,
                                              states=False)
    elif kind == "adaptive":
        rtol = float(arg) if arg else 1e-6
        traj = analysis.integrate_adaptive(target, input_fun, x0,
                                           (0.0, args.horizon), rtol=rtol)
    else:
        raise ValueError(f"unknown integrator {args.integrator!r} "
                         "(use trapezoid:STEPS or adaptive:RTOL)")
    out_dir.mkdir(parents=True, exist_ok=True)
    m = traj.y.shape[1]
    columns = ["t"] + [f"y_{j + 1}" for j in range(m)]
    rows = [[traj.t[i], *traj.y[i]] for i in range(traj.t.size)]
    analysis.write_csv(out_dir / "trajectory.csv", columns, rows)
    _write_report(out_dir, config, {"stats": traj.stats, "n": n,
                                    "rows": traj.t.size})
    print(f"wrote {out_dir / 'trajectory.csv'} ({traj.t.size} rows); "
          f"stats: {traj.stats}")
    return 0


def cmd_analyze(args) -> int:
    out_dir = pathlib.Path(args.out)
    system, system_nl, _ = _load_bundle(args.bundle)
    if system_nl is not None:
        raise ValueError("analyze operates on linear bundles")
    config = RunConfig(command="analyze", bundle=args.bundle,
                       compare=args.compare, omega_min=args.omega_min,
                       omega_max=args.omega_max, points=args.points,
                       out=str(out_dir), seed=args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    omega_max = args.omega_max
    if omega_max is None:
        omega_max = BODE_OMEGA_FACTOR * max(
            abs(spectral_abscissa(system)), 1e-6)
    omega_min = (args.omega_min if args.omega_min is not None
                 else omega_max * 1e-6)
    table = analysis.bode_data(system, omega_min, omega_max, points=args.points)
    m = system.n_out * system.n_in
    if m == 1:
        columns = ["omega", "mag_db", "phase_deg"]
    else:
        columns = ["omega"]
        for i in range(system.n_out):
            for j in range(system.n_in):
                columns += [f"mag_db_{i + 1}_{j + 1}",
                            f"phase_deg_{i + 1}_{j + 1}"]
    analysis.write_csv(out_dir / "bode.csv", columns,
                       [list(row) for row in table])
    extra: dict = {"n": system.n,
                   "stability": _print_stability_summary(system),
                   "grid": {"omega_min": omega_min, "omega_max": omega_max,
                            "points": args.points}}
    if args.compare:
        other, other_nl, _ = _load_bundle(args.compare)
        if other_nl is not None:
            raise ValueError("analyze operates on linear bundles")
        h2 = analysis.h2_error(system, other)
        extra["h2_error"] = {"value": h2.value, "slack": h2.slack}
        print(f"h2 error vs {args.compare}: {h2.value:.6e} "
              f"(rounding bound {h2.slack:.1e})")
    _write_report(out_dir, config, extra)
    print(f"wrote {out_dir / 'bode.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabmor",
        description="Stability-preserving Galerkin model order reduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark system bundle")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    def add_msd_args(p, cubic=False):
        p.add_argument("--masses", type=int, default=4)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--stiffness", type=float, default=1.0)
        p.add_argument("--damping", type=float, default=1.0)
        p.add_argument("--input-node", type=int, default=0)
        p.add_argument("--output-node", type=int, default=-1,
                       help="-1 means the last mass")
        if cubic:
            p.add_argument("--gamma", type=float, default=0.5)

    p = gen_sub.add_parser("msd", help="mass-spring-damper chain")
    add_msd_args(p)
    p = gen_sub.add_parser("cubic-msd", help="chain with cubic springs")
    add_msd_args(p, cubic=True)
    p = gen_sub.add_parser("nonnormal", help="non-normal stable system")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--lam-min", type=float, default=0.1)
    p.add_argument("--lam-max", type=float, default=10.0)
    p.add_argument("--kappa", type=float, default=50.0)
    p.add_argument("--density", type=float, default=0.1)
    p.add_argument("--allow-dissipative", action="store_true")
    p = gen_sub.add_parser("convdiff", help="convection-diffusion benchmark")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--diffusion", type=float, default=1e-3)
    p.add_argument("--velocity", type=float, default=1.0)
    p.add_argument("--grade", type=float, default=8.0)
    for p in gen_sub.choices.values():
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=0)

    red = sub.add_parser("reduce", help="run a reduction sweep")
    red.add_argument("--bundle", required=True)
    red.add_argument("--method", choices=("arnoldi", "pod"), default="arnoldi")
    red.add_argument("--r", required=True,
                     help="orders, e.g. 1:20 or 1,2,5,10")
    red.add_argument("--s0", type=float, default=1.0,
                     help="Arnoldi expansion point")
    red.add_argument("--stabilize", action="store_true")
    red.add_argument("--delta", type=float, default=DEFAULT.delta)
    red.add_argument("--mode", choices=("auto", "dense", "lradi"),
                     default="auto", help="Lyapunov solver choice")
    red.add_argument("--adi-steps", type=int, default=DEFAULT.lradi_steps)
    red.add_argument("--adi-shifts", type=int,
                     default=DEFAULT.lradi_num_shifts)
    red.add_argument("--adi-tol", type=float, default=DEFAULT.lradi_residual)
    red.add_argument("--input", default="step")
    red.add_argument("--horizon", type=float, default=10.0)
    red.add_argument("--trapz-steps", type=int, default=1000)
    red.add_argument("--out", required=True)
    red.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="integrate one system bundle")
    sim.add_argument("--bundle", required=True)
    sim.add_argument("--input", default="zero")
    sim.add_argument("--horizon", type=float, default=10.0)
    sim.add_argument("--integrator", default="trapezoid:1000")
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=0)

    ana = sub.add_parser("analyze", help="frequency-domain report")
    ana.add_argument("--bundle", required=True)
    ana.add_argument("--compare", default=None,
                     help="second bundle for an H2 error")
    ana.add_argument("--omega-min", type=float, default=None)
    ana.add_argument("--omega-max", type=float, default=None)
    ana.add_argument("--points", type=int, default=200)
    ana.add_argument("--out", required=True)
    ana.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"generate": cmd_generate, "reduce": cmd_reduce,
                "simulate": cmd_simulate, "analyze": cmd_analyze}
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except StabmorError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
