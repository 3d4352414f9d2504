"""Sweep Arnoldi reduced orders on a mass-spring-damper chain.

Reduces the chain conventionally and with the Lyapunov-transformed test
basis side by side, so the stabilization effect and its H2 cost are visible
in one table. Writes sweep.csv into --out and prints the rows.

Usage: python3 scripts/msd_arnoldi_sweep.py --masses 30 --r-max 20 --out runs/msd
"""
from __future__ import annotations

import argparse
import pathlib

import numpy as np

from stabmor import analysis, benchgen, stabilize
from stabmor.dynsys import spectral_abscissa
from stabmor.projection import ProjectionBasis, arnoldi_basis, galerkin_reduce


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--masses", type=int, default=30)
    parser.add_argument("--r-max", type=int, default=20)
    parser.add_argument("--s0", type=float, default=1.0)
    parser.add_argument("--out", default="runs/msd_arnoldi")
    args = parser.parse_args()

    system = benchgen.gen_msd_chain(masses=args.masses)
    print(f"chain with {args.masses} masses, n = {system.n}, "
          f"alpha = {spectral_abscissa(system):.3e}")
    stab = stabilize.assemble_stabilizer(system, mode="dense")
    print(f"transformation: k = {stab.k}, rank q = {stab.q}")

    basis_full = arnoldi_basis(system, args.r_max, s0=args.s0)
    rows = []
    for r in range(1, basis_full.r + 1):
        basis = ProjectionBasis(v=basis_full.v[:, :r],
                                method=basis_full.method,
                                details=basis_full.details)
        conv = galerkin_reduce(system, basis)
        red = stabilize.stabilized_reduce(system, basis, stab)
        alpha_conv = spectral_abscissa(conv)
        alpha_stab = spectral_abscissa(red)
        h2_conv = (analysis.h2_error(system, conv).value
                   if alpha_conv < 0.0 else None)
        h2_stab = analysis.h2_error(system, red).value
        rows.append([r, alpha_conv, alpha_stab, h2_conv, h2_stab])
        print(f"r = {r:3d}  alpha conv {alpha_conv:+.3e}  "
              f"stab {alpha_stab:+.3e}  h2 conv "
              f"{'unstable' if h2_conv is None else format(h2_conv, '.3e')}  "
              f"stab {h2_stab:.3e}")

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_csv(out / "sweep.csv",
                       ["r", "alpha_conventional", "alpha_stabilized",
                        "h2_conventional", "h2_stabilized"], rows)
    unstable = sum(1 for row in rows if row[1] >= 0.0)
    print(f"{unstable} of {len(rows)} conventional models unstable; "
          f"all {len(rows)} stabilized models stable: "
          f"{all(row[2] < 0.0 for row in rows)}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
