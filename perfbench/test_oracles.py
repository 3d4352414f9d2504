"""Self-tests of the benchmark's oracles and of its metric list.

Each oracle is run on a case with a closed-form answer (mostly the
first-order lag y' = -y + u: H2 norm sqrt(1/2), unit-step response
1 - exp(-t)), and each check is shown to reject a wrong output. The
trajectory tolerances are shown to accept the second-order rule and reject
backward Euler on the workloads' own models.

    python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest
import scipy.linalg as sla

import oracles

HERE = pathlib.Path(__file__).resolve().parent

LAG = (np.eye(1), -np.eye(1), np.ones((1, 1)), np.ones((1, 1)))


def lag(pole: float):
    return (np.eye(1), -pole * np.eye(1), np.ones((1, 1)), np.ones((1, 1)))


def test_h2_norm_of_the_lag_is_sqrt_half():
    assert oracles.h2_norm(*LAG) == pytest.approx(np.sqrt(0.5), rel=1e-14)


def test_h2_error_of_two_lags():
    # ||1/(s+1) - 1/(s+2)||^2 = 1/2 + 1/4 - 2/3
    assert oracles.h2_error(lag(1.0), lag(2.0)) == pytest.approx(
        np.sqrt(1 / 12), rel=1e-12)


def test_check_h2_rejects_a_wrong_value():
    exact = np.sqrt(0.5)
    assert oracles.check_h2(exact * (1 + 4e-6), exact, "lag") == []
    assert oracles.check_h2(exact * 1.001, exact, "lag")


def test_output_bound_holds_for_the_lag_and_rejects_a_larger_error():
    horizon = 10.0
    u_l2 = oracles.step_l2_norm(horizon)
    assert u_l2 == pytest.approx(np.sqrt(horizon))
    # reduced model zero: the error is the lag's own step response
    max_error = 1.0 - np.exp(-horizon)
    h2 = np.sqrt(0.5)
    assert oracles.check_output_bound(max_error, h2, u_l2, "lag") == []
    assert oracles.check_output_bound(1.01 * h2 * u_l2, h2, u_l2, "lag")


def test_step_response_of_the_lag():
    t = np.linspace(0.0, 5.0, 501)
    y = oracles.step_response(*LAG, 5.0, 500)
    np.testing.assert_allclose(y.ravel(), 1.0 - np.exp(-t), atol=1e-13)


def linear_rule(e, a, b, c, horizon, steps, theta):
    """theta = 1/2: trapezoid; theta = 1: backward Euler; unit step input."""
    h = horizon / steps
    lhs = np.linalg.inv(e - theta * h * a)
    x = np.zeros(a.shape[0])
    ys = [c @ x]
    for _ in range(steps):
        x = lhs @ (e @ x + (1 - theta) * h * (a @ x) + h * b.ravel())
        ys.append(c @ x)
    return np.asarray(ys)


def test_check_trajectory_rejects_a_first_order_rule_on_the_lag():
    exact = oracles.step_response(*LAG, 10.0, 1000)
    trap = linear_rule(*LAG, 10.0, 1000, 0.5)
    euler = linear_rule(*LAG, 10.0, 1000, 1.0)
    assert oracles.check_trajectory(trap, exact, 1e-4, "lag") == []
    assert oracles.check_trajectory(euler, exact, 1e-4, "lag")
    assert oracles.check_trajectory(exact[:-1], exact, 1e-4, "lag")


def test_msd30_step_tolerance_separates_the_orders():
    e, _, jac, b, c = oracles.cubic_msd(30, gamma=0.0)
    system = (e, jac(np.zeros(60)), b[:, None], c[None, :])
    exact = oracles.step_response(*system, 10.0, 1000)
    rtol = oracles.MSD30_STEP_RTOL
    assert oracles.check_trajectory(linear_rule(*system, 10.0, 1000, 0.5),
                                    exact, rtol, "msd30") == []
    assert oracles.check_trajectory(linear_rule(*system, 10.0, 1000, 1.0),
                                    exact, rtol, "msd30")


def test_convdiff_step_tolerance_separates_the_orders():
    sys.path.insert(0, str(HERE.parent / "src"))
    from stabmor.benchgen import gen_convection_diffusion

    model = gen_convection_diffusion(n=400)
    system = tuple(oracles.dense(m) for m in (model.e, model.a, model.b,
                                              model.c))
    exact = oracles.step_response(*system, 2.0, 1000)
    rtol = oracles.CONVDIFF_STEP_RTOL
    assert oracles.check_trajectory(linear_rule(*system, 2.0, 1000, 0.5),
                                    exact, rtol, "convdiff") == []
    assert oracles.check_trajectory(linear_rule(*system, 2.0, 1000, 1.0),
                                    exact, rtol, "convdiff")


def test_radau_reference_of_a_riccati_equation():
    # x' = 1 - x^2, x(0) = 0 has the solution tanh(t)
    t = np.linspace(0.0, 3.0, 31)
    y = oracles.radau_output(np.eye(1), lambda x: -x ** 2,
                             lambda x: np.diag(-2.0 * x), np.ones(1),
                             np.ones(1), lambda s: 1.0, t)
    np.testing.assert_allclose(y, np.tanh(t), atol=1e-9)


def newton_rule(e, f, jac, b, u, horizon, steps, theta):
    """theta-method with Newton iterations, zero initial state."""
    h = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    x = np.zeros(e.shape[0])
    xs = [x]
    for i in range(steps):
        base = e @ x + (1 - theta) * h * (f(x) + b * u(times[i]))
        xn = x.copy()
        for _ in range(25):
            res = e @ xn - theta * h * (f(xn) + b * u(times[i + 1])) - base
            step = np.linalg.solve(e - theta * h * jac(xn), res)
            xn = xn - step
            if np.linalg.norm(step) <= 1e-10 * (1 + np.linalg.norm(xn)):
                break
        x = xn
        xs.append(x)
    return np.asarray(xs)


def test_cubic_radau_tolerance_separates_the_orders():
    e, f, jac, b, c = oracles.cubic_msd(30)
    u = lambda t: np.sin(2 * np.pi * t / 4.0)  # noqa: E731
    t = np.linspace(0.0, 10.0, 401)
    ref = oracles.radau_output(e, f, jac, b, c, u, t)
    rtol = oracles.CUBIC_RADAU_RTOL
    trap = newton_rule(e, f, jac, b, u, 10.0, 400, 0.5) @ c
    euler = newton_rule(e, f, jac, b, u, 10.0, 400, 1.0) @ c
    assert oracles.check_trajectory(trap, ref, rtol, "cubic") == []
    assert oracles.check_trajectory(euler, ref, rtol, "cubic")


def test_cubic_model_matches_its_definition():
    e, f, jac, _, _ = oracles.cubic_msd(3, gamma=2.0)
    x = np.arange(1.0, 7.0)
    h = 1e-6
    fd = np.column_stack([(f(x + h * d) - f(x - h * d)) / (2 * h)
                          for d in np.eye(6)])
    np.testing.assert_allclose(jac(x), fd, atol=1e-6)
    assert f(np.zeros(6)) == pytest.approx(np.zeros(6))
    np.testing.assert_array_equal(e, np.eye(6))


def test_stabilized_rom_check_accepts_a_stable_spd_model():
    ebar = np.array([[2.0, 0.5], [0.5, 1.0]])
    abar = np.array([[-1.0, 3.0], [0.0, -2.0]])
    assert oracles.check_stabilized_rom(ebar, abar, 1.0, 2.0, "ok") == []


@pytest.mark.parametrize("ebar, abar, z_norm, what", [
    (np.eye(2), np.array([[0.1, 0.0], [0.0, -1.0]]), 1.0, "abscissa"),
    (np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0, "abscissa"),
    (np.diag([1.0, -1.0]), -np.eye(2), 1.0, "positive definite"),
    (np.array([[1.0, 0.1], [0.0, 1.0]]), -np.eye(2), 1.0, "symmetric"),
    (np.diag([10.0, 1.0]), -np.eye(2), 2.0, "bound"),
])
def test_stabilized_rom_check_rejects(ebar, abar, z_norm, what):
    problems = oracles.check_stabilized_rom(ebar, abar, 1.0, z_norm, "bad")
    assert problems and what in " ".join(problems)


def shear():
    """A = [[-1, 4], [0, -1]]: stable, symmetric part spectrum {2, -6}."""
    a = np.array([[-1.0, 4.0], [0.0, -1.0]])
    e = np.eye(2)
    mu = oracles.symmetric_part_eigenvalues(e, a)
    delta = 1.0
    u_tilde = np.sqrt(mu[-1] + delta) * np.array([[1.0], [1.0]]) / np.sqrt(2)
    x = sla.solve_continuous_lyapunov(a.T, -u_tilde @ u_tilde.T)
    w, v = np.linalg.eigh(x)
    return a, e, v * np.sqrt(np.clip(w, 0.0, None)), u_tilde, delta, mu


def test_symmetric_part_spectrum_of_the_shear():
    np.testing.assert_allclose(shear()[-1], [-6.0, 2.0], atol=1e-14)


def test_certificate_accepts_the_exact_factor_and_rejects_none():
    a, e, z, u_tilde, delta, mu = shear()
    lhs, rhs = oracles.certificate(a, e, z, u_tilde, delta, mu)
    assert rhs == pytest.approx(1.0) and lhs < 1e-12
    assert oracles.check_certificate(a, e, z, u_tilde, delta, mu, "ok") == []
    # without a correction the residual is Ut Ut^T, of norm mu_1 + delta = 3
    empty = np.zeros((2, 0))
    assert oracles.certificate(a, e, empty, u_tilde, delta, mu)[0] == \
        pytest.approx(3.0)
    assert oracles.check_certificate(a, e, empty, u_tilde, delta, mu, "bad")


def test_lyapunov_residual_rejects_a_perturbed_factor():
    a, e, z, u_tilde, _, _ = shear()
    assert oracles.check_lyapunov_residual(a, e, z, u_tilde, "ok") == []
    assert oracles.check_lyapunov_residual(a, e, 1.0001 * z, u_tilde, "bad")


def test_read_csv_keeps_markers(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("# stabmor-v1\nr,h2\n1,0.5\n2,NA\n3,FAIL\n")
    assert oracles.read_csv(path) == [{"r": 1.0, "h2": 0.5},
                                      {"r": 2.0, "h2": "NA"},
                                      {"r": 3.0, "h2": "FAIL"}]


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import run
    import spans

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {name: run.layer_unit(name)
                     for name in spans.metric_names()}
