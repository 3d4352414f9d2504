"""POD reduction of the graded-mesh convection-diffusion benchmark.

Builds the snapshot basis from an adaptive step-input simulation, assembles
the stabilizing transformation with the low-rank ADI solver (k = 1 here, so
the factor grows by one column per step; the graded boundary layer still
demands a long shift cycle), and compares full versus reduced step responses
on a trapezoidal grid. Writes sweep.csv into --out.

Usage: python3 scripts/convdiff_pod_sweep.py --n 400 --r-max 12 --out runs/cd
"""
from __future__ import annotations

import argparse
import pathlib

import numpy as np

from stabmor import analysis, benchgen, stabilize
from stabmor.dynsys import spectral_abscissa
from stabmor.projection import ProjectionBasis, galerkin_reduce, pod_basis


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--diffusion", type=float, default=1e-3)
    parser.add_argument("--grade", type=float, default=8.0)
    parser.add_argument("--r-max", type=int, default=12)
    parser.add_argument("--adi-steps", type=int, default=200)
    parser.add_argument("--horizon", type=float, default=2.0)
    parser.add_argument("--trapz-steps", type=int, default=1000)
    parser.add_argument("--out", default="runs/convdiff_pod")
    args = parser.parse_args()

    system = benchgen.gen_convection_diffusion(n=args.n,
                                               diffusion=args.diffusion,
                                               grade=args.grade)
    print(f"convection-diffusion n = {system.n}, "
          f"alpha = {spectral_abscissa(system):.3e}")
    stab = stabilize.assemble_stabilizer(system, mode="lradi",
                                         steps=args.adi_steps)
    print(f"transformation: k = {stab.k}, rank q = {stab.q} after "
          f"{len(stab.residual_history) - 1} recorded ADI iterations "
          f"(final residual {stab.residual_history[-1]:.3e}, "
          f"certified: {stab.certified})")

    u = analysis.make_input("step")
    x0 = np.zeros(system.n)
    snapshots = analysis.integrate_adaptive(system, u, x0,
                                            (0.0, args.horizon),
                                            harvest_snapshots=True).snapshots
    basis_full = pod_basis(snapshots, args.r_max)
    print(f"POD basis from {snapshots.shape[1]} snapshots, "
          f"r_max = {basis_full.r}")

    fom = analysis.integrate_trapezoidal(system, u, x0, (0.0, args.horizon),
                                         steps=args.trapz_steps, states=False)
    rows = []
    for r in range(1, basis_full.r + 1):
        basis = ProjectionBasis(v=basis_full.v[:, :r],
                                method=basis_full.method,
                                details=basis_full.details)
        conv = galerkin_reduce(system, basis)
        red = stabilize.stabilized_reduce(system, basis, stab)
        alpha_conv = spectral_abscissa(conv.to_system())
        alpha_stab = spectral_abscissa(red.to_system())
        rom_traj = analysis.integrate_trapezoidal(red, u, np.zeros(r),
                                                  (0.0, args.horizon),
                                                  steps=args.trapz_steps,
                                                  states=False)
        max_err, _ = analysis.output_error(fom, rom_traj)
        rows.append([r, alpha_conv, alpha_stab, max_err])
        print(f"r = {r:3d}  alpha conv {alpha_conv:+.3e}  "
              f"stab {alpha_stab:+.3e}  max output error {max_err:.3e}")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_csv(out / "sweep.csv",
                       ["r", "alpha_conventional", "alpha_stabilized",
                        "max_output_error"], rows)
    print(f"all stabilized models stable: "
          f"{all(row[2] < 0.0 for row in rows)}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
