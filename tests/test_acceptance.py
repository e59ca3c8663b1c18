"""End-to-end acceptance gate for the toolkit.

Seven criteria, one test each, and every test prints a single PASS/FAIL
verdict line (run with  pytest -s tests/test_acceptance.py  to see them all).
Each clause is asserted at its required tolerance.
"""
import math
import time
from dataclasses import replace

import numpy as np

from decwt import gfunc
from decwt.fields import ComplexField1D, GridSpec1D, GridSpec2D
from decwt.gaussian import (
    GaussianParams,
    build_cubic,
    coherence_exact,
    ensemble_width_exact,
    gamma_exact,
    params_exact,
)
from decwt.gfunc import (
    compute_g_table,
    gauge_transform,
    verify_g_identities,
)
from decwt.lse import evolve_lse, init_gaussian_a, marginalme_residual
from decwt.marginal_dynamics import (
    integrate_closed_system,
    integrate_prescribed_gamma,
    linear_long,
    linear_short,
)
from decwt.master_eq import evolve_master_eq, init_gaussian_rho, suggest_extents
from decwt.observables import coherence_from_rho, qseries_residual
from decwt.scenario import NumericsSpec, characteristic_time, preset_bundle


def pure_params(alpha: float) -> GaussianParams:
    return GaussianParams(alpha, 0.0, 0.0, 0.5 * math.log(2.0 * alpha / math.pi))


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_ac1_closed_form_matches_direct_ode():
    bundle = preset_bundle("moderate")
    s = bundle.scenario
    g = build_cubic(s, s.alpha0, 0.0)

    start = time.perf_counter()
    traj = integrate_closed_system(s, dt=1e-4, t_end=5.0, sample_every=100)
    elapsed = time.perf_counter() - start

    worst = 0.0
    for i, t in enumerate(traj.t):
        p = params_exact(g, s, float(t))
        for num, ref in ((traj.alpha[i], p.alpha), (traj.beta[i], p.beta),
                         (traj.gamma[i], p.gamma)):
            worst = max(worst, abs(num - ref) / max(abs(ref), 1e-30))

    # rational spot values at t = 1 for alpha0 = 1/4, beta0 = 0
    i1 = int(np.argmin(np.abs(np.asarray(traj.t) - 1.0)))
    spots_ok = (
        math.isclose(traj.alpha[i1], 3.0 / 23.0, rel_tol=1e-6)
        and math.isclose(traj.beta[i1], -15.0 / 46.0, rel_tol=1e-6)
        and math.isclose(traj.gamma[i1], 30.0 / 23.0, rel_tol=1e-6)
    )

    ok = worst <= 1e-6 and spots_ok and elapsed < 5.0
    verdict("AC1 closed form vs direct ODE", ok,
            f"max rel err {worst:.2e}, spot values at t=1 "
            f"{'ok' if spots_ok else 'WRONG'}, {elapsed:.2f} s")
    assert worst <= 1e-6
    assert spots_ok
    assert elapsed < 5.0


def test_ac2_grid_master_equation_tracks_closed_form():
    start = time.perf_counter()
    worst_l = worst_w = 0.0
    for name in ("moderate", "strong"):
        bundle = preset_bundle(name)
        s = bundle.scenario
        g = build_cubic(s, s.alpha0, 0.0)
        rho0 = init_gaussian_rho(pure_params(s.alpha0), bundle.grid)
        samples, _ = evolve_master_eq(rho0, s, bundle.numerics)

        pur = [smp.purity for smp in samples]
        assert all(b <= a + 1e-12 for a, b in zip(pur, pur[1:])), name

        for smp in samples:
            l_ref = float(coherence_exact(g, s, smp.t))
            w_ref = float(ensemble_width_exact(g, smp.t))
            worst_l = max(worst_l, abs(smp.coherence_length - l_ref) / l_ref)
            worst_w = max(worst_w, abs(smp.ensemble_width - w_ref) / w_ref)
    elapsed = time.perf_counter() - start

    ok = worst_l <= 1e-3 and worst_w <= 1e-3 and elapsed < 300.0
    verdict("AC2 spectral master equation vs closed form", ok,
            f"coherence rel err {worst_l:.2e}, width rel err {worst_w:.2e}, "
            f"purity monotone, {elapsed:.0f} s for both presets")
    assert worst_l <= 1e-3
    assert worst_w <= 1e-3
    assert elapsed < 300.0


def test_ac3_wavefunction_route_matches_prescribed_ode():
    bundle = preset_bundle("moderate")
    s = bundle.scenario

    a0 = init_gaussian_a(s.alpha0, GridSpec1D(1024, 24.0))
    samples, _ = evolve_lse(a0, s, NumericsSpec(dt=1e-4, t_end=1.0,
                                                sample_every=1000))
    gm = linear_short(s)
    ref = integrate_prescribed_gamma(s, gm, dt=1e-5,
                                     t_end=1.0, sample_every=10000)
    worst_a = worst_b = 0.0
    for i, smp in enumerate(samples[1:], start=1):
        assert math.isclose(smp.t, ref.t[i], abs_tol=1e-9)
        worst_a = max(worst_a,
                      abs(smp.alpha - ref.alpha[i]) / abs(ref.alpha[i]))
        worst_b = max(worst_b,
                      abs(smp.beta - ref.beta[i]) / abs(ref.beta[i]))

    # residual of the marginal equation of motion on the sampled trajectory,
    # second order in the snapshot spacing
    grid_r = GridSpec1D(512, 16.0)

    def series(stride):
        a = init_gaussian_a(s.alpha0, grid_r)
        num = NumericsSpec(dt=1e-4, t_end=0.1, sample_every=stride)
        return evolve_lse(a, s, num)[1]

    r_coarse = marginalme_residual(series(100), s)
    r_fine = marginalme_residual(series(50), s)
    ratio = r_coarse / r_fine

    ok = worst_a <= 1e-4 and worst_b <= 1e-4 and r_coarse < 1e-3 and 3.0 <= ratio <= 5.0
    verdict("AC3 wavefunction route vs prescribed-coupling ODE", ok,
            f"alpha rel err {worst_a:.2e}, beta rel err {worst_b:.2e}, "
            f"marginal residual {r_coarse:.2e} shrinking x{ratio:.2f} per "
            f"spacing halving")
    assert worst_a <= 1e-4
    assert worst_b <= 1e-4
    assert r_coarse < 1e-3
    assert 3.0 <= ratio <= 5.0


def test_ac4_coherence_length_asymptotics():
    s = preset_bundle("moderate").scenario
    t_b = characteristic_time(s)
    g = build_cubic(s, s.alpha0, 0.0)

    t = np.logspace(math.log10(10.0 * t_b), math.log10(100.0 * t_b), 256)
    length = np.asarray(coherence_exact(g, s, t))
    slope = float(np.polyfit(np.log(t), np.log(length), 1)[0])
    prod = length * np.sqrt(t)
    spread = float(prod.max() / prod.min() - 1.0)

    t_probe, h = 1e-3 * t_b, 1e-4 * t_b
    rate = (float(coherence_exact(g, s, t_probe + h))
            - float(coherence_exact(g, s, t_probe - h))) / (2.0 * h)
    rate /= float(coherence_exact(g, s, 0.0))
    target = -4.0 * s.lam * s.b ** 2
    rate_dev = abs(rate / target - 1.0)

    ok = abs(slope + 0.5) <= 5e-3 and spread <= 1e-2 and rate_dev <= 2e-2
    verdict("AC4 coherence length asymptotics", ok,
            f"log-log slope {slope:.5f} over [10,100] t_b, l*sqrt(t) spread "
            f"{spread:.2%}, initial rate within {rate_dev:.2%} of -4*lam*b^2")
    assert abs(slope + 0.5) <= 5e-3
    assert spread <= 1e-2
    assert rate_dev <= 2e-2


def model_deviations(s, gm, dt, t_end, sample_every):
    """Sample times and relative deviations of the width and of the coherence
    length 1/sqrt(alpha + gamma) under the prescribed coupling gm from the
    exact ones."""
    g = build_cubic(s, s.alpha0, 0.0)
    traj = integrate_prescribed_gamma(s, gm, dt=dt, t_end=t_end,
                                      sample_every=sample_every)
    tv, alpha = np.asarray(traj.t), np.asarray(traj.alpha)
    ref = np.asarray(ensemble_width_exact(g, tv))
    coh = np.asarray(coherence_exact(g, s, tv))
    return (tv, np.abs(0.5 / np.sqrt(alpha) - ref) / ref,
            np.abs(1.0 / np.sqrt(alpha + np.asarray(traj.gamma)) - coh) / coh)


def late_decades(s, gm):
    """Largest width deviation over [1e2, 1e3] t_b and over [1e3, 1e4] t_b,
    then the same pair for the coherence length."""
    tb = characteristic_time(s)
    tv, *rels = model_deviations(s, gm, dt=2e-2 * tb, t_end=1e4 * tb,
                                 sample_every=50)
    mid, last = (tv >= 1e2 * tb) & (tv <= 1e3 * tb), tv >= 1e3 * tb
    return tuple((float(rel[mid].max()), float(rel[last].max())) for rel in rels)


def early_decades(s, gm):
    """Largest coherence-length deviation over (1e-2, 1e-1] t_b and over
    (0, 1e-2] t_b."""
    tb = characteristic_time(s)
    tv, _, rel = model_deviations(s, gm, dt=1e-3 * tb, t_end=0.1 * tb,
                                  sample_every=1)
    near = (tv > 0.0) & (tv <= 1e-2 * tb)
    return float(rel[tv > 1e-2 * tb].max()), float(rel[near].max())


def test_ac5_linear_coupling_model_quality():
    s_mod = preset_bundle("moderate").scenario
    t_b = characteristic_time(s_mod)
    g_mod = build_cubic(s_mod, s_mod.alpha0, 0.0)

    # short-time model: error vanishes faster than quadratically
    tt = np.logspace(-3.0, -1.0, 128) * t_b
    gm_short = linear_short(s_mod)
    err = np.abs(np.array([gm_short(tv) for tv in tt])
                 - np.asarray(gamma_exact(g_mod, s_mod, tt)))
    power = float(np.polyfit(np.log(tt), np.log(err), 1)[0])

    # long-time model: coupling itself within 1% beyond 10 t_b
    tl = np.linspace(10.0 * t_b, 100.0 * t_b, 400)
    gm_long = linear_long(s_mod)
    g_ref = np.asarray(gamma_exact(g_mod, s_mod, tl))
    gerr = float(np.max(np.abs(
        np.array([gm_long(tv) for tv in tl]) - g_ref) / g_ref))

    # Width under the prescribed long-time coupling, both presets. The
    # early-time mismatch of the linear coupling leaves a relative width
    # deviation ~ E (t_b/t) cos(ln(t)/sqrt(2) + phi), E ~ 1.3 (moderate) and
    # ~ 7 (strong): it tends to zero, the long-time limit the model is meant to
    # reproduce,
    # but only like 1/t. E t_b/t < 1% needs t > 700 t_b on the strong preset,
    # so the 1% bound is asserted on the first full decade past that,
    # [1e3, 1e4] t_b, together with a decade-over-decade decay of the maximum.
    # A coupling with the right offset and a slope off by 5% is the negative
    # control: it must fail both late checks.
    #
    # The coherence length 1/sqrt(alpha + gamma) of the same trajectories is
    # held to AC2's 1e-3 over [1e3, 1e4] t_b, and over (0, 0.1] t_b under the
    # short-time coupling, with its deviation falling towards each limit:
    # the decade nearer the limit at most half the one before. The slope x1.05
    # control fails both late checks; near t = 0 its error grows like t, so
    # it fails the bound and passes the decay.
    stats, late, control = {}, {}, {}
    coh_late, coh_control, coh_early, coh_early_control = {}, {}, {}, {}
    for name in ("moderate", "strong"):
        s = preset_bundle(name).scenario
        tb = characteristic_time(s)
        gm = linear_long(s)
        tv, rel, _ = model_deviations(s, gm, dt=1e-3 * tb, t_end=20.0 * tb,
                                      sample_every=10)
        stats[name] = (
            float(rel[(tv > 0.0) & (tv <= 0.1 * tb)].max()),
            float(rel[tv >= 10.0 * tb].max()),
            float(rel.max()),
        )
        late[name], coh_late[name] = late_decades(s, gm)
        control[name], coh_control[name] = late_decades(
            s, lambda t, gm=gm: gm(0.0) + 1.05 * (gm(t) - gm(0.0)))
        gs = linear_short(s)
        coh_early[name] = early_decades(s, gs)
        coh_early_control[name] = early_decades(s, lambda t, gs=gs: 1.05 * gs(t))
    early_mod, dev10_mod, hump_mod = stats["moderate"]
    early_str, dev10_str, hump_str = stats["strong"]

    def late_ok(mid, last):
        return last <= 1e-2, last <= 0.5 * mid

    late_pass = all(all(late_ok(*late[n])) for n in late)
    control_caught = all(not any(late_ok(*control[n])) for n in control)

    def coh_late_ok(mid, last):
        return last <= 1e-3, last <= 0.5 * mid

    def coh_early_ok(far, near):
        return max(far, near) <= 1e-3, near <= 0.5 * far

    coh_pass = (all(all(coh_late_ok(*coh_late[n])) for n in coh_late)
                and all(all(coh_early_ok(*coh_early[n])) for n in coh_early))
    coh_control_caught = (
        all(not any(coh_late_ok(*coh_control[n])) for n in coh_control)
        and all(not all(coh_early_ok(*coh_early_control[n]))
                for n in coh_early_control))

    def decade_text(d):
        return (f"{d['moderate'][1]:.2%}/{d['strong'][1]:.2%} with decay "
                f"x{d['moderate'][0] / d['moderate'][1]:.1f}/"
                f"x{d['strong'][0] / d['strong'][1]:.1f}")

    def coh_text(late_d, early_d):
        return (f"{late_d['moderate'][1]:.1e}/{late_d['strong'][1]:.1e} over "
                f"[1e3,1e4] t_b, {max(early_d['moderate']):.1e}/"
                f"{max(early_d['strong']):.1e} over (0,0.1] t_b")

    ok = (power >= 2.7 and gerr <= 1e-2
          and early_mod <= 1e-2 and early_str <= 1e-2
          and late_pass and control_caught
          and coh_pass and coh_control_caught
          and hump_str > hump_mod)
    verdict("AC5 linear coupling model quality", ok,
            f"error power {power:.2f}, long-time coupling dev {gerr:.2%}, "
            f"early width dev {max(early_mod, early_str):.1e}, width dev at "
            f"10 t_b {dev10_mod:.1%}/{dev10_str:.1%}, over [1e3,1e4] t_b "
            f"{decade_text(late)} (bound 1%, decay >= x2), slope x1.05 control "
            f"{decade_text(control)}, mid-time hump "
            f"{hump_mod:.1%} -> {hump_str:.1%}, coherence length dev "
            f"{coh_text(coh_late, coh_early)} (bound 1e-3), control "
            f"{coh_text(coh_control, coh_early_control)}")
    assert power >= 2.7
    assert gerr <= 1e-2
    assert early_mod <= 1e-2 and early_str <= 1e-2
    assert hump_str > hump_mod
    assert late_pass, (
        "width under the long-time linear coupling must stay within 1% of the "
        "exact width over [1e3, 1e4] t_b and its largest deviation there must "
        "be at most half that over [1e2, 1e3] t_b: "
        f"{decade_text(late)} (moderate/strong)")
    assert control_caught, (
        "a coupling with its slope off by 5% must fail both late checks on "
        f"both presets, but gave {decade_text(control)} (moderate/strong)")
    assert coh_pass, (
        "the coherence length under the linear couplings must stay within "
        "1e-3 of the exact one over [1e3, 1e4] t_b (long-time coupling) and "
        "(0, 0.1] t_b (short-time coupling), its deviation at least halving "
        f"towards each limit: {coh_text(coh_late, coh_early)} "
        f"(moderate/strong), decades {coh_late} and {coh_early}")
    assert coh_control_caught, (
        "couplings with their slope off by 5% must fail the coherence "
        f"clauses on both presets, but gave "
        f"{coh_text(coh_control, coh_early_control)} (moderate/strong)")


def test_ac6_structural_identities(monkeypatch):
    bundle = preset_bundle("moderate")
    s = bundle.scenario
    t_b = characteristic_time(s)
    g = build_cubic(s, s.alpha0, 0.0)

    gamma_k = float(gamma_exact(g, s, t_b))
    tau = np.linspace(-4.0, 4.0, 128)
    table = compute_g_table(gamma_k, tau)
    reports = verify_g_identities(table)
    worst_identity = max(r.residual for r in reports)

    # negative control: one entry moved 100x THRESHOLD off must fail
    perturbed = replace(table, entries={**table.entries,
                                        (1, 1): table.entries[(1, 1)] + 1e-6})
    caught = [r.name for r in verify_g_identities(perturbed) if not r.passed]

    probe_grid = GridSpec1D(n_points=256, extent=4.0)
    pts = probe_grid.points()
    probe = ComplexField1D(np.exp(-s.alpha0 * pts * pts).astype(complex),
                           probe_grid, t=0.0)
    _, gauge = gauge_transform(probe, gamma_k, 0.3 * pts)
    gauge_dev = max(r.residual for r in gauge)

    # negative control: a q-quadrature g_(0,0) off by 1e-6 breaks the shift
    # law by theta' * 1e-6. The invariance row has no control: it measures
    # the round-off of |e^{i theta}|^2 - 1 and uses no g-entry.
    quad = gfunc.quadrature_entries

    def g00_off(gamma_k, tau):
        rows = quad(gamma_k, tau)
        rows[0] += 1e-6  # the table's first key, (0, 0)
        return rows

    monkeypatch.setattr(gfunc, "quadrature_entries", g00_off)
    _, gauge_off = gauge_transform(probe, gamma_k, 0.3 * pts)
    monkeypatch.undo()
    gauge_caught = [r.name for r in gauge_off if not r.passed]

    params_fn = lambda t: params_exact(g, s, t)
    worst_q = max(qseries_residual(params_fn, s, t_b))
    control = qseries_residual(params_fn, replace(s, lam=0.0), t_b)[2]
    control_ok = math.isclose(control, 2.0 * s.lam, rel_tol=1e-3)

    ok = (all(r.passed for r in reports) and worst_identity < 1e-8 and caught
          and gauge_dev < 1e-12 and gauge_caught and worst_q < 1e-6 and control_ok)
    verdict("AC6 structural identities", ok,
            f"overlap identities {worst_identity:.1e}, perturbed g_(1,1) fails "
            f"{len(caught)} of {len(reports)}, gauge residual "
            f"{gauge_dev:.1e}, perturbed g_(0,0) fails the shift law, "
            f"hierarchy orders 0-2 residual {worst_q:.1e}, "
            f"no-source control {control:.6f} = 2*lam")
    assert all(r.passed for r in reports)
    assert worst_identity < 1e-8
    assert caught == ["recursion d g_(n,m) = g_(n+1,m) + g_(n,m+1)",
                      "binomial sums over each diagonal", "Re g_(0,2) = -g_(1,1)",
                      "table against q-quadrature",
                      "reconstruction from one-sided column"]
    assert gauge_dev < 1e-12
    assert gauge_caught == ["gauge potential shift law"]
    assert worst_q < 1e-6
    assert control_ok


def test_ac7_convergence_orders():
    bundle = preset_bundle("moderate")
    s = bundle.scenario
    g = build_cubic(s, s.alpha0, 0.0)

    def ode_err(dt):
        traj = integrate_closed_system(s, dt=dt, t_end=2.0,
                                       sample_every=max(1, round(2.0 / dt)))
        p = params_exact(g, s, float(traj.t[-1]))
        return max(abs(traj.alpha[-1] - p.alpha), abs(traj.beta[-1] - p.beta),
                   abs(traj.gamma[-1] - p.gamma))

    e_ode = [ode_err(dt) for dt in (0.05, 0.025, 0.0125)]
    r_ode = (e_ode[0] / e_ode[1], e_ode[1] / e_ode[2])

    # split-step routes, error at t = 0.25 against closed-form references
    t_end = 0.25
    ext_y, ext_z = suggest_extents(s, s.alpha0, 0.0, t_end)
    grid2 = GridSpec2D(256, 256, ext_y, ext_z)
    l_ref = float(coherence_exact(g, s, t_end))

    def master_eq_err(dt):
        rho = init_gaussian_rho(pure_params(s.alpha0), grid2)
        num = NumericsSpec(dt=dt, t_end=t_end, sample_every=round(t_end / dt))
        _, final = evolve_master_eq(rho, s, num)
        return abs(coherence_from_rho(final) - l_ref)

    e_me = [master_eq_err(dt) for dt in (5e-3, 2.5e-3, 1.25e-3)]
    r_me = (e_me[0] / e_me[1], e_me[1] / e_me[2])

    gm = linear_short(s)
    a_ref = integrate_prescribed_gamma(s, gm, dt=1e-6,
                                       t_end=t_end,
                                       sample_every=round(t_end / 1e-6)).alpha[-1]

    def lse_err(dt, n_points=1024):
        a = init_gaussian_a(s.alpha0, GridSpec1D(n_points, 24.0))
        num = NumericsSpec(dt=dt, t_end=t_end, sample_every=round(t_end / dt))
        samples, _ = evolve_lse(a, s, num)
        return abs(samples[-1].alpha - a_ref)

    e_lse = [lse_err(dt) for dt in (4e-4, 2e-4, 1e-4)]
    r_lse = (e_lse[0] / e_lse[1], e_lse[1] / e_lse[2])

    # spectral accuracy: doubling the grid leaves observables unchanged
    def master_eq_coherence(n):
        rho = init_gaussian_rho(pure_params(s.alpha0),
                                GridSpec2D(n, n, ext_y, ext_z))
        num = NumericsSpec(dt=1e-3, t_end=t_end, sample_every=250)
        _, final = evolve_master_eq(rho, s, num)
        return coherence_from_rho(final)

    d_spectral = abs(master_eq_coherence(256) - master_eq_coherence(512))
    d_spectral_1d = abs(lse_err(1e-4, 1024) - lse_err(1e-4, 2048))

    ratios_ok = (all(13.0 <= r <= 19.0 for r in r_ode)
                 and all(3.0 <= r <= 5.0 for r in r_me)
                 and all(3.0 <= r <= 5.0 for r in r_lse))
    spectral_ok = d_spectral < 1e-6 and d_spectral_1d < 1e-6
    verdict("AC7 convergence orders", ratios_ok and spectral_ok,
            f"ODE error ratios {r_ode[0]:.1f}/{r_ode[1]:.1f} (16 nominal), "
            f"split-step ratios {r_me[0]:.2f}/{r_me[1]:.2f} and "
            f"{r_lse[0]:.2f}/{r_lse[1]:.2f} (4 nominal), grid doubling moves "
            f"observables {max(d_spectral, d_spectral_1d):.1e}")
    for r in r_ode:
        assert 13.0 <= r <= 19.0
    for r in (*r_me, *r_lse):
        assert 3.0 <= r <= 5.0
    assert d_spectral < 1e-6
    assert d_spectral_1d < 1e-6
