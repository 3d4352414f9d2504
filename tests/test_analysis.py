"""Frequency-domain error measures, integrators, and CSV output."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from stabmor import analysis, benchgen, dynsys, stabilize
from stabmor.analysis import (
    CSV_VERSION,
    Trajectory,
    bode_data,
    h2_error,
    input_l2_norm,
    integrate_adaptive,
    integrate_trapezoidal,
    make_input,
    output_error,
    write_csv,
)
from stabmor.config import DEFAULT
from stabmor.dynsys import LinearSystem, spectral_abscissa
from stabmor.errors import (
    ConvergenceFailure,
    DenseCapExceeded,
    FactorizationFailure,
    GridMismatch,
    StepSizeUnderflow,
    UnstableOperand,
)
from stabmor.linalg import SNAPSHOT_BLOCK, as_dense, dense_abscissa
from stabmor.nonlinear import NonlinearSystem, linearize, nonlinear_reduce
from stabmor.projection import (
    ProjectionBasis,
    arnoldi_basis,
    external_basis,
    galerkin_reduce,
    pod_basis,
)
from stabmor.stabilize import (
    assemble_stabilizer,
    solve_lyapunov_dense,
    stabilized_reduce,
)
from tests.conftest import (
    cubic_msd_block_jacobian,
    reference_dp5,
    reference_trapezoid,
)


def scalar_lag() -> LinearSystem:
    """H(s) = 1/(s+1): the analytic H2 norm is sqrt(1/2)."""
    return LinearSystem(np.eye(1), -np.eye(1), np.ones((1, 1)),
                        np.ones((1, 1)))


def error_gramian_h2(full, rom) -> float:
    """||H - Hr||_H2 from the controllability Gramian of the error system.

    Written out densely here, independently of the library's three-term
    sum: standard forms of both models, their block-diagonal error system
    and one Bartels-Stewart solve of its Lyapunov equation.
    """
    def standard(sys):
        e = as_dense(sys.e)
        return (np.linalg.solve(e, as_dense(sys.a)),
                np.linalg.solve(e, sys.b), sys.c)

    a1, b1, c1 = standard(full)
    a2, b2, c2 = standard(rom)
    a = sla.block_diag(a1, a2)
    b = np.vstack([b1, b2])
    c = np.hstack([c1, -c2])
    p = sla.solve_continuous_lyapunov(a, -b @ b.T)
    return float(np.sqrt(max(np.trace(c @ p @ c.T), 0.0)))


def sub_basis(basis, r):
    return ProjectionBasis(v=basis.v[:, :r], method=basis.method,
                           details=basis.details)


@pytest.fixture(scope="module")
def convdiff400_pod_models():
    """The convdiff400 benchmark's models: POD r = 1..12, LR-ADI factor of
    200 steps over 40 shifts."""
    fom = benchgen.gen_convection_diffusion(n=400)
    snapshots = integrate_adaptive(fom, make_input("step"), np.zeros(400),
                                   (0.0, 2.0), harvest_snapshots=True).snapshots
    basis = pod_basis(snapshots, 12)
    stab = assemble_stabilizer(fom, mode="lradi", steps=200,
                               config=DEFAULT.with_(lradi_num_shifts=40))
    return fom, [stabilized_reduce(fom, sub_basis(basis, r), stab)
                 for r in range(1, basis.r + 1)]


class TestH2Error:
    def test_identical_systems_give_zero(self):
        sys = benchgen.gen_msd_chain(masses=3)
        res = h2_error(sys, sys)
        assert res.value == 0.0

    def test_first_order_lag_analytic_value(self):
        res = h2_error(scalar_lag())
        assert abs(res.value - np.sqrt(0.5)) <= 1e-12
        assert res.points == 0
        assert float(res) == res.value

    def test_unstable_operand_rejected(self):
        bad = LinearSystem(np.eye(1), np.eye(1), np.ones((1, 1)),
                           np.ones((1, 1)))
        with pytest.raises(UnstableOperand, match="^first operand"):
            h2_error(bad)
        with pytest.raises(UnstableOperand, match="^second operand"):
            h2_error(scalar_lag(), bad)

    def test_abscissa_computed_once_per_operand(self, monkeypatch):
        sys = benchgen.gen_msd_chain(masses=4)
        rom = galerkin_reduce(sys, arnoldi_basis(sys, 3, s0=1.0))
        calls = []

        def counted(m):
            calls.append(m.shape[0])
            return dense_abscissa(m)

        # the Lyapunov solve's check, and any spectral_abscissa call
        monkeypatch.setattr(stabilize, "dense_abscissa", counted)
        monkeypatch.setattr(dynsys, "dense_abscissa", counted)
        h2_error(sys, rom)
        assert sorted(calls) == [3, 8]

    def test_full_order_gramian_solved_once_per_system(self, monkeypatch):
        sys = benchgen.gen_msd_chain(masses=10)
        basis = arnoldi_basis(sys, 6, s0=1.0)
        sizes = []

        def counted(a, e, f, config=DEFAULT):
            sizes.append(a.shape[0])
            return solve_lyapunov_dense(a, e, f, config)

        monkeypatch.setattr(analysis, "solve_lyapunov_dense", counted)
        first = h2_error(sys, galerkin_reduce(sys, sub_basis(basis, 4)))
        h2_error(sys, galerkin_reduce(sys, sub_basis(basis, 6)))
        assert sizes == [20, 4, 6]
        # a new configuration is a new entry
        again = h2_error(sys, galerkin_reduce(sys, sub_basis(basis, 4)),
                         config=DEFAULT.with_(lradi_residual=1e-9))
        assert sizes == [20, 4, 6, 20, 4]
        assert again.value == first.value

    def test_msd30_arnoldi_models_match_error_gramian(self):
        sys = benchgen.gen_msd_chain(masses=30)
        stab = assemble_stabilizer(sys, mode="dense")
        basis = arnoldi_basis(sys, 20, s0=1.0)
        for r in range(1, 21):
            rom = stabilized_reduce(sys, sub_basis(basis, r), stab)
            res = h2_error(sys, rom)
            want = error_gramian_h2(sys, rom.to_system())
            assert abs(res.value - want) <= 1e-10 * want, r
            assert abs(res.value - want) <= res.slack, r

    def test_convdiff400_pod_models_match_error_gramian(
            self, convdiff400_pod_models):
        fom, roms = convdiff400_pod_models
        assert [rom.r for rom in roms] == list(range(1, 13))
        for rom in roms:
            res = h2_error(fom, rom)
            want = error_gramian_h2(fom, rom.to_system())
            assert abs(res.value - want) <= 1e-10 * want, rom.r
            assert abs(res.value - want) <= res.slack, rom.r

    def test_exact_reduction_is_zero_within_slack(self):
        # r = n: the reduced model is the full model in other coordinates;
        # its squared error sits at the rounding floor of the three terms
        sys = benchgen.gen_msd_chain(masses=10)
        rom = stabilized_reduce(sys, arnoldi_basis(sys, 20, s0=1.0),
                                assemble_stabilizer(sys, mode="dense"))
        assert rom.r == sys.n
        res = h2_error(sys, rom)
        want = error_gramian_h2(sys, rom.to_system())
        assert abs(res.value - want) <= res.slack
        assert res.slack <= 1e-5 * h2_error(sys).value

    def test_lradi_branch_above_the_cap_matches_dense(
            self, convdiff400_pod_models):
        fom, roms = convdiff400_pod_models
        above = DEFAULT.with_(dense_cap=100, lradi_residual=1e-14)
        for rom in roms:
            dense = h2_error(fom, rom)
            lradi = h2_error(fom, rom, config=above)
            assert abs(lradi.value - dense.value) <= 1e-8 * dense.value, rom.r
            assert abs(lradi.value - dense.value) <= lradi.slack, rom.r

    def test_lradi_branch_stopping_short_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "H2_ADI_STEPS", 3)
        fom = benchgen.gen_convection_diffusion(n=200)
        with pytest.raises(ConvergenceFailure, match="in 3 steps"):
            h2_error(fom, config=DEFAULT.with_(dense_cap=100))
        assert fom._h2_squared == {}

    def test_second_operand_above_the_cap_is_rejected_before_any_solve(
            self, monkeypatch):
        calls = []
        lradi = analysis.solve_lyapunov_lradi
        monkeypatch.setattr(analysis, "solve_lyapunov_lradi",
                            lambda *a, **k: calls.append(1) or lradi(*a, **k))
        big = benchgen.gen_convection_diffusion(n=200)
        with pytest.raises(DenseCapExceeded, match="second operand"):
            h2_error(big, big, config=DEFAULT.with_(dense_cap=100))
        assert calls == [] and big._h2_squared == {}

    def test_arnoldi_sweep_trend_decreases(self):
        sys = benchgen.gen_msd_chain(masses=10)
        orders, values = [], []
        for r in (2, 4, 6, 8, 10, 12):
            rom = galerkin_reduce(sys, arnoldi_basis(sys, r, s0=1.0))
            if spectral_abscissa(rom.to_system()) < 0.0:
                orders.append(r)
                values.append(h2_error(sys, rom).value)
        assert len(values) >= 4
        assert values[-1] < 0.1 * values[0]
        slope = np.polyfit(orders, np.log10(values), 1)[0]
        assert slope < 0.0


class TestErrorBound:
    def test_sup_error_below_h2_bound(self):
        # zero initial conditions: sup_t |y - ybar| <= ||H - Hbar||_H2 ||u||
        sys = benchgen.gen_msd_chain(masses=6)
        u = make_input("sine", period=3.0)
        horizon = 20.0
        u_norm = input_l2_norm(u, horizon)
        t_fom = integrate_trapezoidal(sys, u, np.zeros(12), (0.0, horizon),
                                      steps=2000)
        checked = 0
        for r in (2, 3, 4, 5):
            rom = galerkin_reduce(sys, arnoldi_basis(sys, r, s0=1.0))
            if spectral_abscissa(rom.to_system()) >= 0.0:
                continue
            res = h2_error(sys, rom)
            t_rom = integrate_trapezoidal(rom, u, np.zeros(r),
                                          (0.0, horizon), steps=2000)
            sup, _ = output_error(t_fom, t_rom)
            assert sup <= res.value * u_norm + res.slack
            checked += 1
        assert checked >= 3


class TestBode:
    def test_first_order_lag_markers(self):
        rows = bode_data(scalar_lag(), 1e-4, 10.0, points=201)
        assert rows.shape == (201, 3)
        at_one = rows[np.argmin(np.abs(rows[:, 0] - 1.0))]
        assert at_one[1] == pytest.approx(-3.0103, abs=1e-3)
        assert at_one[2] == pytest.approx(-45.0, abs=1e-6)
        assert rows[0, 1] == pytest.approx(0.0, abs=1e-6)  # flat at DC

    def test_pole_hit_leaves_nan_gap(self):
        rot = LinearSystem(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                           np.ones((2, 1)), np.ones((1, 2)))
        rows = bode_data(rot, 1.0, 10.0, points=5)  # grid starts on the pole
        assert np.all(np.isnan(rows[0, 1:]))
        assert np.all(np.isfinite(rows[1:, 1:]))

    def test_mimo_column_layout(self):
        sys = LinearSystem(np.eye(3), -np.eye(3), np.ones((3, 2)),
                           np.ones((1, 3)))
        rows = bode_data(sys, 0.1, 10.0, points=20)
        assert rows.shape == (20, 1 + 2 * 2)


class TestAdaptiveIntegrator:
    def test_exponential_decay(self):
        traj = integrate_adaptive(scalar_lag(), None, np.array([1.0]),
                                  (0.0, 1.0))
        assert abs(traj.x_end[0] - np.exp(-1.0)) <= 1e-5
        assert traj.stats["steps"] > 0

    def test_zero_input_zero_state(self):
        sys = benchgen.gen_msd_chain(masses=3)
        traj = integrate_adaptive(sys, make_input("zero"), np.zeros(6),
                                  (0.0, 2.0))
        assert np.all(traj.y == 0.0)

    def test_full_order_reduction_reproduces_the_fom(self):
        sys = benchgen.gen_msd_chain(masses=3)
        rom = galerkin_reduce(sys, external_basis(np.eye(6)))
        u = make_input("sine", period=3.0)
        t_fom = integrate_adaptive(sys, u, np.zeros(6), (0.0, 10.0))
        t_rom = integrate_adaptive(rom, u, np.zeros(6), (0.0, 10.0))
        sup, _ = output_error(t_fom, t_rom)
        assert sup <= 1e-5  # 10x the relative tolerance, generous scale

    def test_snapshot_harvest_counts_stages(self):
        traj = integrate_adaptive(scalar_lag(), None, np.array([1.0]),
                                  (0.0, 1.0), harvest_snapshots=True,
                                  fixed_steps=20)
        assert traj.stats["steps"] == 20
        assert traj.stats["rejected_steps"] == 0
        assert traj.snapshots.shape == (1, 1 + 6 * 20)

    def test_step_after_a_rejection_restarts_from_f_of_the_state(self):
        # a stiff 6-state system that rejects a few steps at rtol 1e-6;
        # reusing the rejected trial's last stage as k_0 of the next trial
        # left a max output error of 6.0e-8 against the exact solution
        rng = np.random.default_rng(3)
        a = (-np.diag(np.geomspace(1.0, 3000.0, 6))
             + 0.3 * rng.standard_normal((6, 6)))
        b = rng.standard_normal((6, 1))
        c = rng.standard_normal((1, 6))
        traj = integrate_adaptive(LinearSystem(np.eye(6), a, b, c),
                                  make_input("step"), np.zeros(6),
                                  (0.0, 1.0), rtol=1e-6)
        assert traj.stats["rejected_steps"] > 0
        # unit step from rest: [x; u] follows exp([[A, B], [0, 0]] t)
        aug = np.zeros((7, 7))
        aug[:6, :6], aug[:6, 6:] = a, b
        exact = np.array([c @ sla.expm(aug * t)[:6, 6] for t in traj.t])
        assert np.abs(exact - traj.y).max() <= 1e-8

    def test_blowup_triggers_step_underflow(self):
        blow = NonlinearSystem(np.eye(1), lambda x: x**2,
                               lambda x: np.array([[2.0 * x[0]]]))
        with pytest.raises(StepSizeUnderflow):
            integrate_adaptive(blow, None, np.array([1.0]), (0.0, 1.5))

    def test_fixed_step_order_slope(self):
        errs = []
        for steps in (20, 40, 80):
            traj = integrate_adaptive(scalar_lag(), None, np.array([1.0]),
                                      (0.0, 1.0), fixed_steps=steps)
            errs.append(abs(traj.x_end[0] - np.exp(-1.0)))
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(3.8 <= s <= 6.0 for s in slopes), slopes

    def test_bad_span_and_state_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(scalar_lag(), None, np.array([1.0]),
                               (1.0, 1.0))
        with pytest.raises(ValueError):
            integrate_adaptive(scalar_lag(), None, np.ones(2), (0.0, 1.0))


def convdiff_harvest(n=100, t1=2.0, config=DEFAULT):
    sys = benchgen.gen_convection_diffusion(n=n)
    return integrate_adaptive(sys, make_input("step"), np.zeros(n),
                              (0.0, t1), harvest_snapshots=True,
                              config=config)


class TestSnapshotHarvest:
    """Streamed Gram up to svd_gram_max states, raw matrix above it."""

    RAW = DEFAULT.with_(svd_gram_max=50)

    def test_streamed_pod_matches_stacked_stage_matrix(self):
        streamed = convdiff_harvest()
        stacked = convdiff_harvest(config=self.RAW)
        count = 1 + 6 * streamed.stats["steps"]
        assert count % SNAPSHOT_BLOCK != 0
        assert streamed.snapshots.shape == (100, count)
        assert streamed.snapshots.matrix is None
        matrix = stacked.snapshots.matrix
        assert stacked.snapshots.shape == matrix.shape == (100, count)
        # initial state, then six stage states per accepted step, the last
        # of which is the accepted state itself; the outputs are those of
        # the accepted states, formed in other blocks
        np.testing.assert_array_equal(matrix[:, 0], 0.0)
        np.testing.assert_array_equal(matrix[:, -1], streamed.x_end)
        c = benchgen.gen_convection_diffusion(n=100).c
        np.testing.assert_allclose(matrix[:, ::6].T @ c.T, streamed.y,
                                   rtol=1e-13, atol=0.0)
        got = pod_basis(streamed.snapshots, 8)
        want = pod_basis(matrix, 8)
        assert np.abs(got.v - want.v).max() <= 1e-10
        sg = np.asarray(got.details["singular_values"])
        sw = np.asarray(want.details["singular_values"])
        assert np.abs(sg / sw - 1.0).max() <= 1e-10

    def test_gram_memory_does_not_grow_with_steps(self):
        short = convdiff_harvest(t1=0.5).snapshots
        long = convdiff_harvest(t1=2.0).snapshots
        assert long.shape[1] > 2 * SNAPSHOT_BLOCK > short.shape[1]
        assert short.nbytes == long.nbytes == 100 * 100 * 8

    def test_raw_path_above_gram_threshold_gives_the_same_basis(self):
        raw = convdiff_harvest(config=self.RAW).snapshots
        assert raw.gram is None
        assert raw.nbytes == raw.matrix.nbytes == 8 * 100 * raw.shape[1]
        # ARPACK on the raw matrix against the dense Gram eigensolve
        got = pod_basis(raw, 8, config=self.RAW)
        want = pod_basis(convdiff_harvest().snapshots, 8)
        assert np.abs(got.v - want.v).max() <= 1e-8
        sg = np.asarray(got.details["singular_values"])
        sw = np.asarray(want.details["singular_values"])
        assert np.abs(sg / sw - 1.0).max() <= 1e-10

    def test_harvest_peak_does_not_grow_with_steps(self):
        n = 100
        sys = benchgen.gen_convection_diffusion(n=n)
        peaks, steps = [], []
        for t1 in (0.5, 6.0):
            tracemalloc.start()
            try:
                traj = integrate_adaptive(sys, make_input("step"),
                                          np.zeros(n), (0.0, t1),
                                          harvest_snapshots=True)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            steps.append(traj.stats["steps"])
        extra_states = 8 * n * (steps[1] - steps[0])
        assert extra_states > 2 * 8 * n * SNAPSHOT_BLOCK
        # only the time grid and the outputs grow with the step count, by
        # about 7 words a step here; a state history adds n = 100 words a step
        assert peaks[1] - peaks[0] < 0.25 * extra_states, peaks


def dense_trapezoid_reference(sys, u, x0, t1, steps):
    """Outputs of the dense trapezoid step: one dense LU of E - h/2 A, then
    a solve with (E + h/2 A) x + h/2 B (u(t_i) + u(t_i+1)) at every step."""
    h = t1 / steps
    e, a = as_dense(sys.e), as_dense(sys.a)
    lu = sla.lu_factor(e - 0.5 * h * a)
    xs = [np.array(x0, dtype=float)]
    for i in range(steps):
        x = xs[-1]
        forcing = sys.b @ np.atleast_1d(u(i * h)) \
            + sys.b @ np.atleast_1d(u((i + 1) * h))
        xs.append(sla.lu_solve(lu, e @ x + 0.5 * h * (a @ x)
                               + 0.5 * h * forcing))
    return np.asarray(xs) @ sys.c.T


def consistent_mass_convdiff(n):
    """Convection-diffusion with a non-diagonal (tridiagonal) sparse E."""
    sys = benchgen.gen_convection_diffusion(n=n)
    w = sys.e.diagonal()
    off = 0.1 * np.minimum(w[:-1], w[1:])
    e = (sys.e + sp.diags([off, off], [-1, 1])).tocsr()
    return LinearSystem(e, sys.a, sys.b, sys.c)


def relative_gap(got, want) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestLinearTrapezoid:
    """The sparse and dense steps against the dense step's reference."""

    def test_sparse_system_matches_dense_step(self):
        # 400 states per row: states, input terms and outputs come in
        # several blocks, which must join up into the one-step recurrence;
        # the sine input shows a misplaced input term at a block boundary
        sys = benchgen.gen_convection_diffusion(n=400)
        for u in (make_input("step"), make_input("sine", period=0.3)):
            traj = integrate_trapezoidal(sys, u, np.zeros(400), (0.0, 2.0),
                                         steps=1000)
            want = dense_trapezoid_reference(sys, u, np.zeros(400), 2.0, 1000)
            assert relative_gap(traj.y, want) <= 1e-11
            assert traj.y.shape == (1001, 1) and traj.x_end.shape == (400,)

    def test_dense_rom_matches_dense_step(self):
        fom = benchgen.gen_msd_chain(masses=30)
        rom = stabilized_reduce(fom, arnoldi_basis(fom, 8),
                                assemble_stabilizer(fom, mode="dense"))
        u = make_input("sine", period=2.0)
        traj = integrate_trapezoidal(rom, u, np.zeros(8), (0.0, 10.0),
                                     steps=1000)
        want = dense_trapezoid_reference(rom.to_system(), u, np.zeros(8),
                                         10.0, 1000)
        # dense systems keep the dense step's arithmetic, so reduced models
        # integrate exactly as before
        np.testing.assert_array_equal(traj.y, want)

    def test_non_diagonal_sparse_mass(self):
        sys = consistent_mass_convdiff(100)
        assert sys._e_diagonal is None
        u = make_input("sine", period=0.5)
        traj = integrate_trapezoidal(sys, u, np.zeros(100), (0.0, 2.0),
                                     steps=500)
        want = dense_trapezoid_reference(sys, u, np.zeros(100), 2.0, 500)
        assert relative_gap(traj.y, want) <= 1e-11

    def test_non_diagonal_sparse_mass_in_dp5(self):
        sparse = consistent_mass_convdiff(60)
        dense = LinearSystem(sparse.e.toarray(), sparse.a.toarray(),
                             sparse.b, sparse.c)
        u = make_input("step")
        got = integrate_adaptive(sparse, u, np.zeros(60), (0.0, 1.0))
        want = integrate_adaptive(dense, u, np.zeros(60), (0.0, 1.0))
        # SuperLU and dense LU round differently, which moves the step
        # sizes; both runs end in the same state to the integration tolerance
        assert got.t[-1] == want.t[-1] == 1.0
        assert relative_gap(got.x_end, want.x_end) <= 1e-6

    def test_wrong_initial_state_length_raises(self):
        with pytest.raises(ValueError):
            integrate_trapezoidal(benchgen.gen_convection_diffusion(n=10),
                                  None, np.zeros(1), (0.0, 1.0), steps=10)


def bitwise_cases():
    """(label, system, input, x0, span): the systems whose integration must
    be bitwise the textbook out-of-place schemes'."""
    cd = benchgen.gen_convection_diffusion(n=100)
    x0 = np.random.default_rng(5).standard_normal(100)
    msd = benchgen.gen_msd_chain(masses=30)
    dense = LinearSystem(msd.e.toarray(), msd.a.toarray(), msd.b, msd.c)
    csc = LinearSystem(cd.e, cd.a.tocsc(), cd.b, cd.c)
    sine = make_input("sine", period=0.3)
    return [
        ("convdiff step", cd, make_input("step"), np.zeros(100), (0.0, 2.0)),
        ("convdiff sine", cd, sine, np.zeros(100), (0.0, 2.0)),
        ("convdiff zero input, x0 != 0", cd, make_input("zero"), x0,
         (0.0, 1.0)),
        ("msd30 sparse", msd, make_input("sine", period=2.0), np.zeros(60),
         (0.0, 5.0)),
        ("msd30 dense", dense, make_input("sine", period=2.0), np.zeros(60),
         (0.0, 5.0)),
        ("tridiagonal sparse E", consistent_mass_convdiff(60), sine,
         np.zeros(60), (0.0, 1.0)),
        ("CSC A", csc, sine, np.zeros(100), (0.0, 1.0)),
    ]


class TestBitwiseStages:
    """Both integrators against textbook out-of-place schemes, bitwise.

    The integrators bind each right-hand side once and form stages in
    preallocated rows; neither may move a result in its last bit.
    """

    @pytest.mark.parametrize("case", range(7))
    def test_dp5_matches_the_out_of_place_scheme(self, case):
        label, sys, u, x0, span = bitwise_cases()[case]
        got = integrate_adaptive(sys, u, x0, span)
        t, y, x_end, stats, _ = reference_dp5(sys, u, x0, span)
        assert got.stats == stats, label
        for a, b in ((got.t, t), (got.y, y), (got.x_end, x_end)):
            np.testing.assert_array_equal(a, b, err_msg=label)

    @pytest.mark.parametrize("case", range(7))
    def test_trapezoid_matches_the_out_of_place_step(self, case):
        label, sys, u, x0, span = bitwise_cases()[case]
        got = integrate_trapezoidal(sys, u, x0, span, steps=300)
        y, x_end = reference_trapezoid(sys, u, x0, span, 300)
        np.testing.assert_array_equal(got.y, y, err_msg=label)
        np.testing.assert_array_equal(got.x_end, x_end, err_msg=label)

    def test_snapshot_gram_matches_the_out_of_place_harvest(self):
        sys = benchgen.gen_convection_diffusion(n=100)
        got = convdiff_harvest(t1=1.0)
        want = reference_dp5(sys, make_input("step"), np.zeros(100),
                             (0.0, 1.0), harvest=True)[4]
        assert got.snapshots.shape == want.shape
        np.testing.assert_array_equal(got.snapshots.gram, want.gram)

    def test_cubic_chain_dp5_matches_the_out_of_place_scheme(self):
        sys = benchgen.gen_cubic_msd(masses=10)
        u = make_input("sine", period=4.0)
        got = integrate_adaptive(sys, u, np.zeros(20), (0.0, 5.0))
        t, y, x_end, stats, _ = reference_dp5(sys, u, np.zeros(20),
                                              (0.0, 5.0))
        assert got.stats == stats
        np.testing.assert_array_equal(got.t, t)
        np.testing.assert_array_equal(got.y, y)
        np.testing.assert_array_equal(got.x_end, x_end)


class TestOutputOnlyTrapezoid:
    """Integrators keep the current state only and return no history."""

    def test_reading_states_raises(self):
        lean = integrate_trapezoidal(scalar_lag(), None, np.array([1.0]),
                                     (0.0, 1.0), steps=10)
        adaptive = integrate_adaptive(scalar_lag(), None, np.array([1.0]),
                                      (0.0, 1.0))
        assert lean.y.shape == (11, 1)
        for traj in (lean, adaptive):
            assert traj.x_end.shape == (1,)
            with pytest.raises(AttributeError):
                traj.x

    def test_memory_stays_below_a_tenth_of_the_states(self):
        n, steps = 4000, 1000
        sys = benchgen.gen_convection_diffusion(n=n)
        u = make_input("step")
        tracemalloc.start()
        try:
            traj = integrate_trapezoidal(sys, u, np.zeros(n), (0.0, 2.0),
                                         steps=steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.y.shape == (steps + 1, 1)
        assert peak < 0.1 * (steps + 1) * n * 8, peak


class TestTrapezoidalIntegrator:
    def test_exponential_decay_second_order(self):
        traj = integrate_trapezoidal(scalar_lag(), None, np.array([1.0]),
                                     (0.0, 1.0), steps=1000)
        assert abs(traj.x_end[0] - np.exp(-1.0)) <= 1e-6

    def test_halving_quarters_the_error(self):
        errs = []
        for steps in (100, 200):
            traj = integrate_trapezoidal(scalar_lag(), None, np.array([1.0]),
                                         (0.0, 1.0), steps=steps)
            errs.append(abs(traj.x_end[0] - np.exp(-1.0)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_zero_matrix_keeps_state_constant(self):
        sys = LinearSystem(np.eye(2), np.zeros((2, 2)), np.ones((2, 1)),
                           np.ones((1, 2)))
        traj = integrate_trapezoidal(sys, None, np.array([1.0, -2.0]),
                                     (0.0, 5.0), steps=50)
        assert np.all(traj.x_end == [1.0, -2.0])
        assert np.all(traj.y == -1.0)

    def test_newton_path_matches_linear_path(self):
        lin = benchgen.gen_msd_chain(masses=3)
        a = lin.a.toarray()
        nl = NonlinearSystem(lin.e, lambda x: a @ x, lambda x: a,
                             b=lin.b, c=lin.c)
        u = make_input("sine", period=2.0)
        t_lin = integrate_trapezoidal(lin, u, np.zeros(6), (0.0, 4.0),
                                      steps=400)
        t_nl = integrate_trapezoidal(nl, u, np.zeros(6), (0.0, 4.0),
                                     steps=400)
        assert np.abs(t_lin.y - t_nl.y).max() <= 1e-9

    def test_cubic_chain_matches_the_block_assembled_jacobian(self):
        # same Newton iteration with the reference Jacobian: the full model
        # and a stabilized r = 10 model give the same outputs and counts
        fom = benchgen.gen_cubic_msd(masses=30)
        ref = NonlinearSystem(fom.e, fom.f, cubic_msd_block_jacobian(30),
                              b=fom.b, c=fom.c)
        lin = linearize(fom)
        stab = assemble_stabilizer(lin, mode="dense")
        basis = arnoldi_basis(lin, 10)
        u = make_input("sine", period=4.0)
        pairs = [(fom, ref, np.zeros(60)),
                 (nonlinear_reduce(fom, basis, stab),
                  nonlinear_reduce(ref, basis, stab), np.zeros(10))]
        for got_sys, want_sys, x0 in pairs:
            got = integrate_trapezoidal(got_sys, u, x0, (0.0, 10.0), steps=200)
            want = integrate_trapezoidal(want_sys, u, x0, (0.0, 10.0),
                                         steps=200)
            assert np.abs(got.y - want.y).max() <= \
                1e-12 * np.abs(want.y).max()
            assert got.stats["stage_count"] == want.stats["stage_count"]

    def test_singular_step_matrix_raises(self):
        # h = 1 makes E - h/2 A = 1 - 1 = 0
        sys = LinearSystem(np.eye(1), 2.0 * np.eye(1), np.ones((1, 1)),
                           np.ones((1, 1)))
        with pytest.raises(FactorizationFailure):
            integrate_trapezoidal(sys, None, np.array([1.0]), (0.0, 1.0),
                                  steps=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            integrate_trapezoidal(scalar_lag(), None, np.array([1.0]),
                                  (0.0, 1.0), steps=0)
        with pytest.raises(ValueError):
            integrate_trapezoidal(scalar_lag(), None, np.array([1.0]),
                                  (2.0, 1.0), steps=10)


def _traj(t, y):
    y = np.asarray(y, dtype=float)
    return Trajectory(t=np.asarray(t, dtype=float), y=y,
                      x_end=np.zeros(1), stats={})


class TestOutputError:
    def test_identical_is_zero(self):
        t = np.linspace(0.0, 1.0, 11)
        y = np.sin(t)[:, None]
        err, per = output_error(_traj(t, y), _traj(t, y))
        assert err == 0.0 and per.shape == (1,)

    def test_constant_offset(self):
        t = np.linspace(0.0, 1.0, 11)
        y = np.sin(t)[:, None]
        err, _ = output_error(_traj(t, y), _traj(t, y + 0.25))
        assert err == pytest.approx(0.25)

    def test_interpolation_onto_coarser_grid(self):
        tf = np.linspace(0.0, 1.0, 1001)
        tc = np.linspace(0.0, 1.0, 11)
        fine = _traj(tf, np.sin(tf)[:, None])
        coarse = _traj(tc, np.sin(tc)[:, None])
        err, _ = output_error(fine, coarse)
        assert err <= 1e-5

    def test_grid_mismatch_without_interpolation(self):
        a = _traj(np.linspace(0.0, 1.0, 5), np.zeros((5, 1)))
        b = _traj(np.linspace(0.0, 1.0, 7), np.zeros((7, 1)))
        with pytest.raises(GridMismatch):
            output_error(a, b, interpolate=False)

    def test_output_count_mismatch_rejected(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            output_error(_traj(t, np.zeros((5, 1))),
                         _traj(t, np.zeros((5, 2))))

    def test_outputless_trajectories(self):
        t = np.linspace(0.0, 1.0, 5)
        err, per = output_error(_traj(t, np.zeros((5, 0))),
                                _traj(t, np.zeros((5, 0))))
        assert err == 0.0 and per.size == 0


class TestTrajectoryValidation:
    def test_time_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(t=np.array([0.0, 0.0, 1.0]), y=np.zeros((3, 1)),
                       x_end=np.zeros(1), stats={})

    def test_shapes_must_match(self):
        with pytest.raises(ValueError):
            Trajectory(t=np.array([0.0, 1.0]), y=np.zeros((3, 1)),
                       x_end=np.zeros(1), stats={})


class TestInputs:
    def test_builtin_kinds(self):
        assert make_input("zero")(3.7) == 0.0
        assert make_input("step", amplitude=2.5)(0.1) == 2.5
        sine = make_input("sine", period=2.0)
        assert sine(0.5) == pytest.approx(1.0)

    def test_sine_requires_period(self):
        with pytest.raises(ValueError):
            make_input("sine")
        with pytest.raises(ValueError):
            make_input("sine", period=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_input("noise")

    def test_l2_norm_of_sine_over_full_period(self):
        u = make_input("sine", period=1.0)
        assert input_l2_norm(u, 1.0) == pytest.approx(np.sqrt(0.5), abs=1e-4)

    def test_l2_norm_of_step(self):
        u = make_input("step")
        assert input_l2_norm(u, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestCsvWriter:
    def test_versioned_header_and_na_markers(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b", "c"],
                  [[1, None, 0.5], [np.nan, np.inf, "x"]])
        lines = path.read_text().splitlines()
        assert lines[0] == f"# {CSV_VERSION}"
        assert lines[1] == "a,b,c"
        assert lines[2] == "1,NA,0.5"
        assert lines[3] == "NA,NA,x"

    def test_floats_roundtrip_exactly(self, tmp_path):
        value = 0.1 + 0.2
        path = tmp_path / "roundtrip.csv"
        write_csv(path, ["v"], [[value]])
        text = path.read_text().splitlines()[2]
        assert float(text) == value

    def test_rewrite_is_byte_identical(self, tmp_path):
        rows = [[i, np.sqrt(i + 1)] for i in range(20)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["i", "s"], rows)
        write_csv(p2, ["i", "s"], rows)
        assert p1.read_bytes() == p2.read_bytes()
