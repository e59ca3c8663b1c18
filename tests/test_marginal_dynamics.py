"""RK4 parameter integrators: the closed system and the prescribed-coupling
variants, checked against the cubic closed form."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from decwt.fields import ComplexField1D
from decwt.gaussian import build_cubic, eval_G, gamma_exact, params_exact
from decwt.lse import evolve_lse
from decwt.marginal_dynamics import (
    IntegrationError,
    exact_closure,
    integrate_closed_system,
    integrate_prescribed_gamma,
    linear_long,
    linear_short,
    sample_grid,
)
from decwt.scenario import GridSpec1D, InvalidParameterError, Scenario


def moderate():
    return Scenario(lam=1.0, b=1.0, label="moderate")


def strong():
    return Scenario(lam=10.0, b=1.0, label="strong")


def test_closed_system_matches_cubic():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    traj = integrate_closed_system(s, dt=1e-3, t_end=5.0, sample_every=100)
    G = eval_G(g, traj.t)
    assert np.max(np.abs(traj.alpha * G - 1.0)) < 1e-10
    assert np.max(np.abs(traj.gamma - gamma_exact(g, s, traj.t))) < 1e-9
    p1 = params_exact(g, s, 1.0)
    i = int(np.argmin(np.abs(traj.t - 1.0)))
    assert math.isclose(traj.beta[i], p1.beta, rel_tol=1e-10)


def test_log_alpha_rate_identity():
    # d/dt ln alpha = 4 beta, checked with centered differences
    s = moderate()
    traj = integrate_closed_system(s, dt=1e-4, t_end=2.0, sample_every=10)
    ln_a = np.log(traj.alpha)
    dt = traj.t[1] - traj.t[0]
    rate = (ln_a[2:] - ln_a[:-2]) / (2.0 * dt)
    assert np.max(np.abs(rate - 4.0 * traj.beta[1:-1])) < 1e-6


def test_delta_keeps_reconstructed_norm_one():
    # norm of a = exp(delta/2 - alpha tau^2 + ...) is exp(delta) sqrt(pi/2alpha):
    # delta = ln(2 alpha / pi)/2 forces it to 1
    s = moderate()
    traj = integrate_closed_system(s, dt=1e-3, t_end=3.0, sample_every=100)
    norm = np.exp(traj.delta) * np.sqrt(np.pi / (2.0 * traj.alpha))
    assert np.max(np.abs(norm - 1.0)) < 1e-8


def test_sampling_stride_and_final_point():
    s = moderate()
    traj = integrate_closed_system(s, dt=1e-3, t_end=0.55, sample_every=100)
    # samples at 0, 0.1, ..., 0.5 plus the final 0.55
    assert np.allclose(traj.t[:-1], np.arange(6) * 0.1, atol=1e-12)
    assert math.isclose(traj.t[-1], 0.55, rel_tol=1e-12)


def test_t_end_before_start_raises():
    s = moderate()
    with pytest.raises(IntegrationError):
        integrate_closed_system(s, dt=1e-3, t_end=-1.0)


def test_blowup_reports_time():
    # a wildly coarse step on the strong preset destabilizes RK4
    s = strong()
    with pytest.raises(IntegrationError) as exc:
        integrate_closed_system(s, dt=50.0, t_end=500.0)
    assert exc.value.t >= 0.0


@pytest.mark.parametrize("drive", ["closed", "prescribed"])
@pytest.mark.parametrize("dt, t_end, name, reason", [
    (math.inf, 1.0, "dt", "must be positive and finite"),
    (math.nan, 1.0, "dt", "must be positive and finite"),
    (1e-3, math.inf, "t_end", "must be finite"),
])
def test_non_finite_step_or_end_is_refused(drive, dt, t_end, name, reason):
    # dt = inf once returned a one-row trajectory at t = 0, dt = nan failed
    # converting NaN to int and t_end = inf overflowed in the step count
    s = moderate()
    with pytest.raises(InvalidParameterError, match=f"^{name}: {reason}$"):
        if drive == "closed":
            integrate_closed_system(s, dt=dt, t_end=t_end)
        else:
            integrate_prescribed_gamma(s, linear_short(s), dt=dt, t_end=t_end)


@pytest.mark.parametrize("drive", ["closed", "prescribed", "lse"])
def test_sample_every_below_one_is_refused(drive):
    # sample_grid once stopped on ZeroDivisionError at sample_every = 0;
    # NumericsSpec refuses it too, so the LSE gets a plain namespace
    s = moderate()
    with pytest.raises(InvalidParameterError, match="^sample_every: must be >= 1$"):
        if drive == "closed":
            integrate_closed_system(s, dt=1e-3, t_end=0.01, sample_every=0)
        elif drive == "prescribed":
            integrate_prescribed_gamma(s, linear_short(s), dt=1e-3, t_end=0.01,
                                       sample_every=0)
        else:
            grid = GridSpec1D(n_points=64, extent=8.0)
            a = ComplexField1D(np.exp(-s.alpha0 * grid.points() ** 2), grid, t=0.0)
            evolve_lse(a, linear_short(s), SimpleNamespace(dt=1e-3, t_end=0.01,
                                                           sample_every=0))


def test_sample_grid_counts_steps_from_zero():
    dt = 2e-3
    assert sample_grid(7 * dt, 0.05, dt, 5) == [7, 10, 15, 20, 25]
    # an ulp off, as sums round, is still step 7
    assert sample_grid(math.nextafter(7 * dt, 1.0), 0.05, dt, 5) == [7, 10, 15, 20, 25]
    with pytest.raises(ValueError, match="^field time 0.035 is not on the dt = 0.002 grid"):
        sample_grid(0.035, 0.05, dt, 5)


@pytest.mark.parametrize("t_end, dt, reason", [
    (0.0035, 1e-3, "is not on the dt = 0.001 grid"),  # once ended at 0.004
    (0.0025, 1e-3, "is not on the dt = 0.001 grid"),  # once ended at 0.002
    (0.0005, 1e-3, "is not on the dt = 0.001 grid"),  # once took no step
    (0.05, 1e-320, "is not a finite number of dt = 1e-320 steps"),  # once overflowed
])
def test_sample_grid_refuses_an_end_off_the_dt_grid(t_end, dt, reason):
    with pytest.raises(ValueError, match=f"^t_end = {t_end!r} {reason}$"):
        sample_grid(0.0, t_end, dt, 1)


def test_sample_grid_takes_an_end_within_4_ulps_of_the_grid():
    assert sample_grid(0.0, math.nextafter(0.05, 1.0), 1e-3, 10)[-1] == 50
    assert sample_grid(0.0, math.nextafter(0.05, 0.0), 1e-3, 10)[-1] == 50


# --- the inlined loop against a per-stage reference -------------------------


def _reference_rk4(rhs, a, b, g, dt, t_end, sample_every):
    """RK4 with one rhs(t, a, b, g) call per stage, as the flow was once
    integrated: the inlined loop must keep its float operations and order."""
    ks = sample_grid(0.0, t_end, dt, sample_every)
    h, w = 0.5 * dt, dt / 6.0
    ts, al, be, ga = [0.0], [a], [b], [g]
    k = 0
    for stop in ks[1:]:
        while k < stop:
            t = k * dt
            a1, b1, g1 = rhs(t, a, b, g)
            a2, b2, g2 = rhs(t + h, a + h * a1, b + h * b1, g + h * g1)
            a3, b3, g3 = rhs(t + h, a + h * a2, b + h * b2, g + h * g2)
            a4, b4, g4 = rhs(t + dt, a + dt * a3, b + dt * b3, g + dt * g3)
            a += w * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            b += w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            g += w * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
            k += 1
        ts.append(k * dt); al.append(a); be.append(b); ga.append(g)
    return ts, al, be, ga


def _assert_same_trajectory(traj, ts, al, be, ga):
    al = np.array(al)
    ref = {"t": np.array(ts), "alpha": al, "beta": np.array(be),
           "gamma": np.array(ga), "delta": 0.5 * np.log(2.0 * al / math.pi)}
    for name, want in ref.items():
        assert np.array_equal(getattr(traj, name), want), name


@pytest.mark.parametrize("sample_every", [1, 7])
@pytest.mark.parametrize("s", [moderate(), strong()], ids=["moderate", "strong"])
def test_closed_system_matches_per_stage_reference(s, sample_every):
    c_g = 2.0 * s.lam

    def rhs(t, a, b, g):
        return 4.0 * a * b, 2.0 * (b * b - a * a - a * g), 4.0 * b * g + c_g

    traj = integrate_closed_system(s, dt=1e-3, t_end=2.0,
                                   sample_every=sample_every)
    _assert_same_trajectory(traj, *_reference_rk4(
        rhs, s.alpha0, 0.0, 0.0, 1e-3, 2.0, sample_every))


@pytest.mark.parametrize("sample_every", [1, 7])
@pytest.mark.parametrize("coupling", ["linear_short", "linear_long",
                                      "exact_closure", "negative_constant"])
@pytest.mark.parametrize("s", [moderate(), strong()], ids=["moderate", "strong"])
def test_prescribed_matches_per_stage_reference(s, coupling, sample_every):
    gamma_l = {
        "linear_short": lambda: linear_short(s),
        "linear_long": lambda: linear_long(s),
        "exact_closure": lambda: exact_closure(s),
        "negative_constant": lambda: (lambda t: -0.3),
    }[coupling]()

    def rhs(t, a, b, _g):
        g = gamma_l(t)
        return 4.0 * a * b, 2.0 * (b * b - a * a - a * g), 0.0

    traj = integrate_prescribed_gamma(s, gamma_l, dt=1e-3,
                                      t_end=2.0, sample_every=sample_every)
    ts, al, be, _ = _reference_rk4(rhs, s.alpha0, 0.0, 0.0, 1e-3, 2.0,
                                   sample_every)
    _assert_same_trajectory(traj, ts, al, be, [gamma_l(t) for t in ts])


def test_prescribed_calls_gamma_l_three_times_per_step():
    # t, t + dt/2 (shared by the two midpoint stages) and t + dt; the gamma
    # column then reads gamma_l once per sample time
    s = moderate()
    calls = []

    def gamma_l(t):
        calls.append(t)
        return 2.0 * t

    traj = integrate_prescribed_gamma(s, gamma_l, dt=1e-3,
                                      t_end=0.5, sample_every=7)
    n_steps = 500
    assert len(calls) == 3 * n_steps + len(traj.t)
    dt, h = 1e-3, 0.5e-3
    assert calls[:3 * n_steps] == [
        x for k in range(n_steps) for x in (k * dt, k * dt + h, k * dt + dt)]
    assert calls[3 * n_steps:] == list(traj.t)


# --- prescribed-coupling variants ----------------------------------------


def test_gamma_model_eval_forms():
    s = moderate()
    assert linear_short(s)(1.0) == 2.0  # 2 Lambda t
    # c2/16 + Lambda t / 2 = 0.0625 + 0.5
    assert math.isclose(linear_long(s)(1.0), 0.5625, rel_tol=1e-14)
    assert math.isclose(exact_closure(s)(1.0), 30.0 / 23.0,
                        rel_tol=1e-13)


def test_prescribed_with_exact_gamma_reproduces_cubic():
    # independent validation of the prescribed-coupling path: feeding the
    # exact gamma(t) back in must reproduce the closed solution
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    traj = integrate_prescribed_gamma(s, lambda t: gamma_exact(g, s, t),
                                      dt=1e-4, t_end=5.0, sample_every=1000)
    assert np.max(np.abs(traj.alpha * eval_G(g, traj.t) - 1.0)) < 1e-12


def test_linear_short_initial_beta_rate():
    # with gamma_l = 2 Lambda t, beta'(0) = -2 alpha0^2 = -1/8
    s = moderate()
    gm = linear_short(s)
    traj = integrate_prescribed_gamma(s, gm, dt=1e-6,
                                      t_end=2e-4, sample_every=100)
    rate = (traj.beta[-1] - traj.beta[0]) / (traj.t[-1] - traj.t[0])
    assert math.isclose(rate, -0.125, rel_tol=1e-3)


def test_prescribed_gamma_column_reports_model():
    s = moderate()
    gm = linear_short(s)
    traj = integrate_prescribed_gamma(s, gm, dt=1e-3,
                                      t_end=1.0, sample_every=200)
    assert np.allclose(traj.gamma, 2.0 * traj.t, atol=1e-12)


def test_linear_long_width_converges_to_exact():
    """The linear-coupling width agrees with the exact one at both ends.

    The relative deviation decays like 1/t after the mid-time hump; the
    windows below sit past the measured 1% crossings (45 t_b moderate,
    187 t_b strong).
    """
    for s, t_lo, t_hi in ((moderate(), 50.0, 100.0), (strong(), 19.0, 21.0)):
        g = build_cubic(s, s.alpha0, 0.0)
        gm = linear_long(s)
        tb = 1.0 / (s.lam * s.b ** 2)
        traj = integrate_prescribed_gamma(s, gm, dt=1e-3 * tb,
                                          t_end=t_hi, sample_every=100)
        w_lin = 0.5 / np.sqrt(traj.alpha)
        w_ex = np.sqrt(eval_G(g, traj.t)) / 2.0
        rel = np.abs(w_lin / w_ex - 1.0)
        late = traj.t >= t_lo
        assert np.max(rel[late]) < 0.01, s.label
        # short times: the linear form is exact at t=0 by construction
        early = traj.t <= 0.1 * tb
        assert np.max(rel[early]) < 1e-4, s.label


def test_linear_long_mid_time_hump_grows_with_coupling():
    humps = {}
    for s in (moderate(), strong()):
        g = build_cubic(s, s.alpha0, 0.0)
        gm = linear_long(s)
        traj = integrate_prescribed_gamma(s, gm, dt=1e-3,
                                          t_end=5.0, sample_every=10)
        w_lin = 0.5 / np.sqrt(traj.alpha)
        w_ex = np.sqrt(eval_G(g, traj.t)) / 2.0
        humps[s.label] = np.max(np.abs(w_lin / w_ex - 1.0))
    assert humps["strong"] > humps["moderate"] > 0.05


def test_linear_long_gamma_crossings():
    # relative gamma error drops below 1% at 7.25 t_b (moderate) and
    # 35.2 t_b (strong); frozen from the asymptotic expansion measurement
    for s, crossing in ((moderate(), 7.25), (strong(), 35.2)):
        g = build_cubic(s, s.alpha0, 0.0)
        gm = linear_long(s)
        tb = 1.0 / (s.lam * s.b ** 2)
        t = np.linspace(0.5 * tb, 60.0 * tb, 4000)
        rel = np.abs(gm(t) / gamma_exact(g, s, t) - 1.0)
        t_cross = t[np.where(rel > 0.01)[0][-1]] / tb
        assert math.isclose(t_cross, crossing, rel_tol=0.02), s.label
