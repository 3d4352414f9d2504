"""The four benchmark workloads.

Each workload builds its full-order model in ``setup`` (timed as
``setup_s``), computes its oracle references once in ``references``
(untimed), and runs whole rounds in ``run_round``. A round is one complete
pass from the full-order model to the last reduced model evaluated and
returns its timings and the checks of its outputs.

Library calls go through module attributes (``stabilize.stabilized_reduce``)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import pathlib
import shutil
import time
from typing import Callable

import numpy as np

from stabmor import (analysis, benchgen, cli, dynsys, nonlinear, projection,
                     stabilize)
from stabmor.config import DEFAULT
from stabmor.errors import SingularReducedMass, StabmorError

import oracles

clock = time.perf_counter


@dataclasses.dataclass
class Round:
    sweep_s: float
    first_rom_s: float
    # wall time spent on the (V, r) items once the transformation exists
    items_s: float
    attempted: int
    failed: int
    # runs the oracles on the round's outputs, outside the timed region
    check: Callable[[], list]
    counts: dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: pathlib.Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self):
        raise NotImplementedError

    def references(self, fom) -> dict:
        raise NotImplementedError

    def instrument(self, fom, tracer) -> None:
        """Hook for traced runs; instance callbacks are wrapped here."""

    def run_round(self, fom, refs) -> Round:
        raise NotImplementedError

    def summary(self) -> str:
        return ""


def _sub_basis(basis, r):
    return projection.ProjectionBasis(v=basis.v[:, :r], method=basis.method,
                                      details=basis.details)


def _z_norm(z) -> float:
    return float(np.linalg.norm(z, 2)) if z.shape[1] else 0.0


class MsdCliSweep(Workload):
    """``stabmor generate msd --masses 30`` then ``reduce --stabilize``.

    The reduce call keeps the CLI defaults (Arnoldi at s0 = 1, 2000-point H2
    grid, 1000 trapezoid steps of a unit step over 10 s) on the orders
    4, 12 and 20, so that several rounds fit the run length.
    """

    name = "msd30-cli-sweep"
    ORDERS = (4, 12, 20)
    HORIZON, STEPS = 10.0, 1000

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.fom_dir = out_dir / "fom"
        self.sweep_dir = out_dir / "sweep"

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self):
        rc = self._cli(["generate", "msd", "--masses", "30",
                        "--out", str(self.fom_dir), "--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"stabmor generate exited {rc}")
        return self.fom_dir

    def references(self, fom):
        full = oracles.read_bundle(self.fom_dir)
        return {"full": full,
                "e_norm": float(np.linalg.norm(full[0], 2)),
                "y_exact": oracles.step_response(*full, self.HORIZON,
                                                 self.STEPS)}

    def run_round(self, fom, refs):
        shutil.rmtree(self.sweep_dir, ignore_errors=True)
        marks = {}
        fom_traj = []
        originals = (stabilize.assemble_stabilizer, stabilize.stabilized_reduce,
                     analysis.integrate_trapezoidal)

        # timestamps at three library boundaries inside the CLI run
        def assemble(*args, **kwargs):
            out = originals[0](*args, **kwargs)
            marks["stab"] = clock()
            return out

        def reduce(*args, **kwargs):
            out = originals[1](*args, **kwargs)
            marks.setdefault("first", clock())
            return out

        def trapezoid(*args, **kwargs):
            out = originals[2](*args, **kwargs)
            if not fom_traj:
                fom_traj.append(out)
            return out

        stabilize.assemble_stabilizer = assemble
        stabilize.stabilized_reduce = reduce
        analysis.integrate_trapezoidal = trapezoid
        try:
            t0 = clock()
            rc = self._cli(["reduce", "--bundle", str(self.fom_dir),
                            "--r", ",".join(map(str, self.ORDERS)),
                            "--stabilize", "--out", str(self.sweep_dir),
                            "--seed", str(self.seed)])
            t1 = clock()
        finally:
            (stabilize.assemble_stabilizer, stabilize.stabilized_reduce,
             analysis.integrate_trapezoidal) = originals
        if rc not in (0, cli.NUMERICAL_ERROR):
            raise RuntimeError(f"stabmor reduce exited {rc}")
        rows = oracles.read_csv(self.sweep_dir / "error_sweep.csv")
        failed = sum(1 for row in rows if "FAIL" in row.values())
        written = sum(p.stat().st_size for p in self.sweep_dir.rglob("*")
                      if p.is_file())
        return Round(sweep_s=t1 - t0,
                     first_rom_s=marks.get("first", t1) - t0,
                     items_s=t1 - marks["stab"], attempted=len(self.ORDERS),
                     failed=failed,
                     check=lambda: self._check(rows, refs, fom_traj),
                     counts={"cli.bytes_written": written})

    def _check(self, rows, refs, fom_traj):
        problems = []
        if [int(row["r"]) for row in rows] != list(self.ORDERS):
            problems.append(f"error_sweep.csv lists orders "
                            f"{[row['r'] for row in rows]}")
        z = oracles.read_mtx(self.sweep_dir / "stabilizer" / "Z.mtx")
        z_norm = _z_norm(z)
        u_l2 = oracles.step_l2_norm(self.HORIZON)
        for row in rows:
            if "FAIL" in row.values():
                continue
            r = int(row["r"])
            rom = oracles.read_bundle(self.sweep_dir / "roms"
                                      / f"r{r:03d}_stabilized")
            label = f"r = {r}"
            problems += oracles.check_stabilized_rom(rom[0], rom[1],
                                                     refs["e_norm"], z_norm,
                                                     label)
            h2 = oracles.h2_error(refs["full"], rom)
            problems += oracles.check_h2(row["h2_error"], h2, label)
            problems += oracles.check_output_bound(row["max_output_error"],
                                                   h2, u_l2, label)
        problems += oracles.check_trajectory(fom_traj[0].y, refs["y_exact"],
                                             oracles.MSD30_STEP_RTOL,
                                             "full-order trapezoid step "
                                             "response")
        return problems


class ConvdiffPodLradi(Workload):
    """Graded convection-diffusion, n = 400, POD basis and LR-ADI factor.

    Dormand-Prince snapshots of a unit-step response over [0, 2] feed a POD
    basis with r <= 12. LR-ADI runs 200 steps over 40 Penzl shifts (or to
    its relative residual tolerance). Every order is reduced with
    stabilization and simulated with 1000 trapezoid steps.
    """

    name = "convdiff400-pod-lradi"
    N, R_MAX, HORIZON, STEPS = 400, 12, 2.0, 1000
    ADI_STEPS, ADI_SHIFTS = 200, 40

    def setup(self):
        return benchgen.gen_convection_diffusion(n=self.N)

    def references(self, fom):
        e, a = fom.e, fom.a
        return {"mu": oracles.symmetric_part_eigenvalues(e, a),
                "e_norm": float(np.linalg.norm(oracles.dense(e), 2)),
                "y_exact": oracles.step_response(e, a, fom.b, fom.c,
                                                 self.HORIZON, self.STEPS)}

    def run_round(self, fom, refs):
        u = analysis.make_input("step")
        span = (0.0, self.HORIZON)
        config = DEFAULT.with_(lradi_num_shifts=self.ADI_SHIFTS)
        t0 = clock()
        snapshots = analysis.integrate_adaptive(
            fom, u, np.zeros(fom.n), span, harvest_snapshots=True).snapshots
        basis = projection.pod_basis(snapshots, self.R_MAX)
        del snapshots
        stab = stabilize.assemble_stabilizer(fom, mode="lradi",
                                             steps=self.ADI_STEPS,
                                             config=config, seed=self.seed)
        roms, trajs, first, items_s, failed = [], [], None, 0.0, 0
        for r in range(1, basis.r + 1):
            ti = clock()
            try:
                rom = stabilize.stabilized_reduce(fom, _sub_basis(basis, r),
                                                  stab)
                first = first or clock()
                trajs.append(analysis.integrate_trapezoidal(
                    rom, u, np.zeros(r), span, steps=self.STEPS))
                roms.append(rom)
            except StabmorError:
                failed += 1
            items_s += clock() - ti
        fom_traj = analysis.integrate_trapezoidal(fom, u, np.zeros(fom.n),
                                                  span, steps=self.STEPS)
        ti = clock()
        for traj in trajs:
            analysis.output_error(fom_traj, traj)
        t1 = clock()
        items_s += t1 - ti

        def check():
            z_norm = _z_norm(stab.z)
            problems = []
            for rom in roms:
                problems += oracles.check_stabilized_rom(
                    rom.ebar, rom.abar, refs["e_norm"], z_norm, f"r = {rom.r}")
            problems += oracles.check_certificate(fom.a, fom.e, stab.z,
                                                  stab.u_tilde, stab.delta,
                                                  refs["mu"], "LR-ADI factor")
            problems += oracles.check_trajectory(fom_traj.y, refs["y_exact"],
                                                 oracles.CONVDIFF_STEP_RTOL,
                                                 "full-order trapezoid step "
                                                 "response")
            return problems

        return Round(sweep_s=t1 - t0, first_rom_s=(first or t1) - t0,
                     items_s=items_s,
                     attempted=self.R_MAX, failed=failed, check=check)


class NonnormalRandomBases(Workload):
    """One non-normal system and many random orthonormal bases.

    ``gen_nonnormal_stable(n=300, kappa=50, seed)``; one dense
    transformation, then 300 Gaussian draws of (V, r), r uniform in 1..20,
    each reduced with stabilization, checked against the condition bound
    and reduced conventionally.
    """

    name = "nonnormal-random-bases"
    N, KAPPA, BASES, R_MAX = 300, 50.0, 300, 20

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.lost = []

    def setup(self):
        return benchgen.gen_nonnormal_stable(n=self.N, kappa=self.KAPPA,
                                             seed=self.seed)

    def references(self, fom):
        return {"e_norm": float(np.linalg.norm(oracles.dense(fom.e), 2))}

    def run_round(self, fom, refs):
        rng = np.random.default_rng([self.seed, 1])
        roms, bounds, first, items_s, failed, lost = [], [], None, 0.0, 0, 0
        t0 = clock()
        stab = stabilize.assemble_stabilizer(fom, mode="dense", seed=self.seed)
        for _ in range(self.BASES):
            ti = clock()
            r = int(rng.integers(1, self.R_MAX + 1))
            v, _ = np.linalg.qr(rng.standard_normal((self.N, r)))
            basis = projection.external_basis(v)
            try:
                rom = stabilize.stabilized_reduce(fom, basis, stab)
                first = first or clock()
                bounds.append(stabilize.condition_bound_check(stab, fom, basis))
                roms.append(rom)
                try:
                    conv = projection.galerkin_reduce(fom, basis)
                    lost += dynsys.spectral_abscissa(conv.to_system()) >= 0.0
                except SingularReducedMass:
                    lost += 1
            except StabmorError:
                failed += 1
            items_s += clock() - ti
        t1 = clock()
        self.lost.append(lost)

        def check():
            z_norm = _z_norm(stab.z)
            problems = oracles.check_lyapunov_residual(fom.a, fom.e, stab.z,
                                                       stab.u_tilde,
                                                       "dense correction")
            bound = 1.0 + refs["e_norm"] ** 2 * z_norm ** 2
            for i, (rom, (_, lib_bound)) in enumerate(zip(roms, bounds)):
                problems += oracles.check_stabilized_rom(
                    rom.ebar, rom.abar, refs["e_norm"], z_norm, f"basis {i}")
                if abs(lib_bound - bound) > 1e-8 * bound:
                    problems.append(f"basis {i}: condition_bound_check "
                                    f"reports bound {lib_bound!r}, "
                                    f"expected {bound!r}")
            return problems

        return Round(sweep_s=t1 - t0, first_rom_s=(first or t1) - t0,
                     items_s=items_s,
                     attempted=self.BASES, failed=failed, check=check)

    def summary(self):
        return (f"conventional reduced models that lost stability per round "
                f"(reference figure): {sorted(set(self.lost))} of {self.BASES}")


class CubicMsdNewton(Workload):
    """30-mass chain with cubic springs, Newton-trapezoid simulation.

    The transformation comes from the Jacobian at the equilibrium; an
    Arnoldi basis of the linearization (s0 = 1) gives stabilized nonlinear
    reduced models of orders 5, 10, 15 and 20. The full model and every
    reduced model are simulated with 400 trapezoid steps under the input
    sin(2 pi t / 4) over [0, 10].
    """

    name = "cubic-msd-newton"
    MASSES, ORDERS, HORIZON, STEPS, PERIOD = 30, (5, 10, 15, 20), 10.0, 400, 4.0

    def setup(self):
        return benchgen.gen_cubic_msd(masses=self.MASSES)

    def references(self, fom):
        e, f, jac, b, c = oracles.cubic_msd(self.MASSES)
        t = np.linspace(0.0, self.HORIZON, self.STEPS + 1)
        u = analysis.make_input("sine", period=self.PERIOD)
        return {"e_norm": float(np.linalg.norm(e, 2)),
                "y_radau": oracles.radau_output(e, f, jac, b, c, u, t)}

    def instrument(self, fom, tracer):
        # reduced models call the full-order Jacobian through this attribute
        fom.jac = tracer.wrap(fom.jac, "nonlinear.NonlinearSystem.jac")

    def run_round(self, fom, refs):
        u = analysis.make_input("sine", period=self.PERIOD)
        span = (0.0, self.HORIZON)
        t0 = clock()
        lin = nonlinear.linearize(fom)
        stab = stabilize.assemble_stabilizer(lin, mode="dense", seed=self.seed)
        basis = projection.arnoldi_basis(lin, max(self.ORDERS))
        roms, trajs, first, items_s, failed = [], [], None, 0.0, 0
        for r in self.ORDERS:
            ti = clock()
            try:
                rom = nonlinear.nonlinear_reduce(fom, _sub_basis(basis, r),
                                                 stab)
                first = first or clock()
                trajs.append(analysis.integrate_trapezoidal(
                    rom, u, np.zeros(r), span, steps=self.STEPS))
                roms.append(rom)
            except StabmorError:
                failed += 1
            items_s += clock() - ti
        fom_traj = analysis.integrate_trapezoidal(fom, u, np.zeros(fom.n),
                                                  span, steps=self.STEPS)
        ti = clock()
        for traj in trajs:
            analysis.output_error(fom_traj, traj)
        t1 = clock()
        items_s += t1 - ti

        def check():
            z_norm = _z_norm(stab.z)
            problems = []
            for rom in roms:
                problems += oracles.check_stabilized_rom(
                    rom.ebar, rom.jac(np.zeros(rom.r)), refs["e_norm"], z_norm,
                    f"r = {rom.r}")
            problems += oracles.check_trajectory(fom_traj.y, refs["y_radau"],
                                                 oracles.CUBIC_RADAU_RTOL,
                                                 "full-order Newton-trapezoid "
                                                 "output")
            return problems

        return Round(sweep_s=t1 - t0, first_rom_s=(first or t1) - t0,
                     items_s=items_s,
                     attempted=len(self.ORDERS), failed=failed, check=check)


WORKLOADS = {w.name: w for w in (MsdCliSweep, ConvdiffPodLradi,
                                 NonnormalRandomBases, CubicMsdNewton)}
