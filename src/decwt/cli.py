"""Command-line front end: scenario runs, figure reproduction, verification,
and checkpoint resume.

Commands
    run                 execute solver routes, emit one CSV per route plus a
                        combined comparison CSV and a MANIFEST
    figures             write the four comparison figures as standalone SVG
    verify              residual table over the structural identities; exit 0
                        iff every non-skipped check passes
    checkpoint-resume   continue a 2-D master-equation run from a binary
                        checkpoint file

CSV schema (time-series routes, fixed column order):
    t, alpha, beta, gamma, delta, coherence_length, ensemble_width, purity,
    norm, flags
with empty fields where a route does not produce a column. Floats are written
with repr so reruns are byte-identical. All writes go through a temp file and
os.replace.

Exit codes: 0 success; 1 route or command failure; 2 usage error (argparse
convention); 3 completed but the grid-adequacy sentinel tripped (aliasing
flag raised or the grid failed the 6-sigma check).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .fields import ComplexField1D, load_field_2d, save_field_2d
from .gaussian import (
    GaussianParams,
    build_cubic,
    coherence_exact,
    ensemble_width_exact,
    gamma_exact,
    params_exact,
)
from .gfunc import (
    ConditionalSampler,
    compute_g_table,
    gauge_transform,
    kernel_from_k_derivative,
    reconstruct_from_column,
    verify_g_identities,
)
from .lse import evolve_lse, init_gaussian_a, marginalme_residual
from .marginal_dynamics import (
    GammaModel,
    gamma_model_eval,
    integrate_closed_system,
    integrate_prescribed_gamma,
    sample_grid,
)
from .master_eq import GridSizeError, evolve_master_eq, init_gaussian_rho
from .observables import qseries_residual
from .scenario import (
    ConfigBundle,
    GridSpec1D,
    NumericsSpec,
    characteristic_time,
    default_bundle,
    load_scenario,
    preset_bundle,
)
from .svgplot import Curve, render_plot, write_svg

ROUTES = ("analytic", "ode", "master-eq", "lse", "gfunc", "hierarchy")
TIMESERIES_ROUTES = ("analytic", "ode", "master-eq", "lse")
CSV_COLUMNS = ("t", "alpha", "beta", "gamma", "delta", "coherence_length",
               "ensemble_width", "purity", "norm", "flags")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SENTINEL = 3


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    v = float(v)
    if math.isnan(v):
        return ""
    return repr(v)


def _write_text(path, text: str) -> None:
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, os.fspath(path))


def _quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path, header: tuple, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_quote(_fmt(row.get(col))) for col in header))
    _write_text(path, "\n".join(lines) + "\n")


def _pure_params(alpha0: float) -> GaussianParams:
    return GaussianParams(alpha=alpha0, beta=0.0, gamma=0.0,
                          delta=0.5 * math.log(2.0 * alpha0 / math.pi))


# --- route runners --------------------------------------------------------


def _gaussian_row(t, a, b, g, d, norm) -> dict:
    """CSV row of the Gaussian observables of the parameters (a, b, g, d)."""
    return {
        "t": t, "alpha": a, "beta": b, "gamma": g, "delta": d,
        "coherence_length": 1.0 / math.sqrt(a + g),
        "ensemble_width": 0.5 / math.sqrt(a),
        "purity": math.sqrt(a / (a + g)),
        "norm": norm,
        "flags": "",
    }


def _rows_from_trajectory(traj) -> list[dict]:
    rows = []
    for i in range(len(traj)):
        a, d = float(traj.alpha[i]), float(traj.delta[i])
        rows.append(_gaussian_row(float(traj.t[i]), a, float(traj.beta[i]),
                                  float(traj.gamma[i]), d,
                                  math.exp(d) * math.sqrt(math.pi / (2.0 * a))))
    return rows


def _sample_times(num: NumericsSpec) -> list[float]:
    return [k * num.dt for k in sample_grid(0.0, num.t_end, num.dt, num.sample_every)]


def run_analytic(bundle: ConfigBundle) -> list[dict]:
    s, num = bundle.scenario, bundle.numerics
    g = build_cubic(s, s.alpha0, 0.0)
    rows = []
    for t in _sample_times(num):
        p = params_exact(g, s, t)
        rows.append(_gaussian_row(t, p.alpha, p.beta, p.gamma, p.delta, 1.0))
    return rows


def run_ode(bundle: ConfigBundle) -> list[dict]:
    s, num = bundle.scenario, bundle.numerics
    traj = integrate_closed_system(s, s.alpha0, 0.0, dt=num.dt,
                                   t_end=num.t_end, sample_every=num.sample_every)
    return _rows_from_trajectory(traj)


def run_master_eq(bundle: ConfigBundle, checkpoint_every: int = 0,
                  outdir: str = ".") -> list[dict]:
    s, num = bundle.scenario, bundle.numerics
    f = init_gaussian_rho(_pure_params(s.alpha0), bundle.grid)
    sink = None
    if checkpoint_every > 0:
        def sink(fld):
            step = int(round((fld.t) / num.dt))
            path = os.path.join(outdir, f"master-eq-step{step:06d}.ckpt")
            tmp = path + ".tmp"
            save_field_2d(tmp, fld)
            os.replace(tmp, path)
    samples, _ = evolve_master_eq(f, s, num, checkpoint_every=checkpoint_every,
                             checkpoint_sink=sink)
    return [_rows_from_samples(smp) for smp in samples]


def _rows_from_samples(smp) -> dict:
    return {
        "t": smp.t,
        "alpha": smp.extras.get("alpha_fit"),
        "beta": smp.extras.get("beta_fit"),
        "gamma": smp.extras.get("gamma_l"),
        "delta": None,
        "coherence_length": smp.coherence_length,
        "ensemble_width": smp.ensemble_width,
        "purity": smp.purity,
        "norm": smp.norm,
        "flags": ";".join(smp.flags),
    }


def run_lse(bundle: ConfigBundle) -> list[dict]:
    s, num = bundle.scenario, bundle.numerics
    grid = bundle.grid.axis_z  # the tau axis reuses the spread-sized z axis
    a = init_gaussian_a(_pure_params(s.alpha0), grid)
    samples, _ = evolve_lse(a, s, num)
    rows = []
    for smp in samples:
        row = _rows_from_samples(smp)
        row["gamma"] = 2.0 * s.lam / s.hbar * (smp.t - s.t0)
        rows.append(row)
    return rows


GFUNC_HEADER = ("name", "value", "threshold", "status")


def _g_checks(s):
    """Order-4 g-table of the sampler at gamma_k = hbar gamma(t_b) (0 when
    Lambda = 0) and its identity reports: (sampler, table, reports)."""
    gamma_k = 0.0
    if s.lam > 0.0:
        g = build_cubic(s, s.alpha0, 0.0)
        gamma_k = s.hbar * float(gamma_exact(g, s, characteristic_time(s)))
    cs = ConditionalSampler(sigma=s.sigma, gamma_k=gamma_k, hbar=s.hbar,
                            q_grid=GridSpec1D(n_points=1024, extent=20.0 * s.sigma))
    tau = np.linspace(-4.0 * s.b, 4.0 * s.b, 128)
    table = compute_g_table(cs, tau, order=4)
    return cs, table, verify_g_identities(table, cs, threshold=1e-8)


def run_gfunc(bundle: ConfigBundle) -> list[dict]:
    cs, table, reports = _g_checks(bundle.scenario)
    rows = []
    for rep in reports:
        rows.append({"name": rep.name, "value": rep.residual,
                     "threshold": rep.threshold,
                     "status": "pass" if rep.passed else "fail"})
    rebuilt = reconstruct_from_column(table)
    rec = max(float(np.max(np.abs(rebuilt[k] - table.entries[k])))
              for k in table.entries)
    rows.append({"name": "reconstruction from one-sided column", "value": rec,
                 "threshold": 1e-8, "status": "pass" if rec <= 1e-8 else "fail"})
    kd = abs(kernel_from_k_derivative(cs, tau0=0.0))
    rows.append({"name": "kernel y-derivative at zero gauge potential",
                 "value": kd, "threshold": 1e-8,
                 "status": "pass" if kd <= 1e-8 else "fail"})
    return rows


HIERARCHY_HEADER = ("t", "res0", "res1", "res2")


def run_hierarchy(bundle: ConfigBundle, fd_step: float = 1e-4) -> list[dict]:
    # residuals use a centered time difference of half-width fd_step, so the
    # first sampled time below fd_step (t = 0 in practice) is not evaluable
    s, num = bundle.scenario, bundle.numerics
    g = build_cubic(s, s.alpha0, 0.0)
    params_fn = lambda t: params_exact(g, s, t)
    z = np.linspace(-3.0 * s.b, 3.0 * s.b, 64)
    rows = []
    for t in _sample_times(num):
        if t < fd_step:
            continue
        rows.append({
            "t": t,
            "res0": qseries_residual(params_fn, s, 0, t, z, fd_step=fd_step),
            "res1": qseries_residual(params_fn, s, 1, t, z, fd_step=fd_step),
            "res2": qseries_residual(params_fn, s, 2, t, z, fd_step=fd_step),
        })
    return rows


# --- run command ----------------------------------------------------------


def _comparison_rows(per_route: dict) -> tuple[tuple, list]:
    """Join time-series routes on exact sample times."""
    routes = [r for r in TIMESERIES_ROUTES if r in per_route]
    time_sets = [set(row["t"] for row in per_route[r]) for r in routes]
    common = sorted(set.intersection(*time_sets)) if time_sets else []
    header = ["t"]
    col_of = {}
    for r in routes:
        present = [c for c in CSV_COLUMNS[1:-1]
                   if any(row.get(c) is not None
                          and not (isinstance(row.get(c), float) and math.isnan(row[c]))
                          for row in per_route[r])]
        tag = r.replace("-", "_")
        for c in present:
            header.append(f"{tag}_{c}")
            col_of[(r, c)] = f"{tag}_{c}"
    rows = []
    for t in common:
        row = {"t": t}
        for r in routes:
            src = next(x for x in per_route[r] if x["t"] == t)
            for (rr, c), name in col_of.items():
                if rr == r:
                    row[name] = src.get(c)
        rows.append(row)
    return tuple(header), rows


def _manifest_text(bundle: ConfigBundle, routes, outdir, status: str,
                   extra: list | None = None) -> str:
    s, g, num = bundle.scenario, bundle.grid, bundle.numerics
    lines = [
        f"label = {s.label}",
        f"routes = {','.join(routes)}",
        f"outdir = {os.fspath(outdir)}",
        "determinism = seedless; fixed-step integrators; identical configs"
        " give byte-identical CSVs",
        f"m = {s.m!r}", f"hbar = {s.hbar!r}", f"Lambda = {s.lam!r}",
        f"b = {s.b!r}", f"sigma = {s.sigma!r}", f"t0 = {s.t0!r}",
        f"n_y = {g.n_y}", f"n_z = {g.n_z}",
        f"extent_y = {g.extent_y!r}", f"extent_z = {g.extent_z!r}",
        f"dt = {num.dt!r}", f"t_end = {num.t_end!r}",
        f"sample_every = {num.sample_every}",
        f"ln_floor = {num.ln_floor!r}", f"fit_window = {num.fit_window}",
        f"status = {status}",
    ]
    if extra:
        lines.extend(extra)
    return "\n".join(lines) + "\n"


def cmd_run(bundle: ConfigBundle, routes: list, outdir,
            checkpoint_every: int = 0) -> int:
    os.makedirs(outdir, exist_ok=True)
    per_route: dict = {}
    grid_failures: list = []
    hard_failures: list = []
    aliasing = False

    table = {  # route -> (runner, CSV header)
        "analytic": (run_analytic, CSV_COLUMNS),
        "ode": (run_ode, CSV_COLUMNS),
        "master-eq": (lambda b: run_master_eq(b, checkpoint_every, os.fspath(outdir)),
                      CSV_COLUMNS),
        "lse": (run_lse, CSV_COLUMNS),
        "gfunc": (run_gfunc, GFUNC_HEADER),
        "hierarchy": (run_hierarchy, HIERARCHY_HEADER),
    }
    for route in routes:
        try:
            if route not in table:
                raise ValueError(f"unknown route {route!r}")
            runner, header = table[route]
            rows = runner(bundle)
        except GridSizeError as exc:
            grid_failures.append(f"{route}: {exc}")
            continue
        except Exception as exc:  # route failure: keep going, report at exit
            hard_failures.append(f"{route}: {exc}")
            continue

        _write_csv(os.path.join(outdir, f"{route}.csv"), header, rows)
        per_route[route] = rows
        if route in TIMESERIES_ROUTES and any(row["flags"] for row in rows):
            aliasing = True

    if any(r in per_route for r in TIMESERIES_ROUTES):
        header, rows = _comparison_rows(per_route)
        _write_csv(os.path.join(outdir, "comparison.csv"), header, rows)

    failures = grid_failures + hard_failures
    if failures:
        status = "failed: " + "; ".join(failures)
    elif aliasing:
        status = "ok (grid-adequacy sentinel tripped: aliasing flagged)"
    else:
        status = "ok"
    _write_text(os.path.join(outdir, "MANIFEST.txt"),
                _manifest_text(bundle, routes, outdir, status))

    for line in failures:
        print(f"route failed: {line}", file=sys.stderr)
    if hard_failures:
        return EXIT_FAILURE
    if grid_failures or aliasing:
        if aliasing:
            print("warning: aliasing sentinel tripped; see flags column",
                  file=sys.stderr)
        return EXIT_SENTINEL
    return EXIT_OK


# --- figures command ------------------------------------------------------


def _model_curves(s, t_end: float, n_keep: int = 200):
    """Exact and prescribed-model trajectories on [0, t_end]."""
    dt = t_end / 5000.0
    stride = 5000 // n_keep
    g = build_cubic(s, s.alpha0, 0.0)
    out = {}
    for name, gm in (
        ("linear-short", GammaModel.linear_short(s, t0=s.t0)),
        ("linear-long", GammaModel.linear_long(s, s.alpha0, 0.0)),
    ):
        traj = integrate_prescribed_gamma(s, s.alpha0, 0.0, gm, dt=dt,
                                          t_end=t_end, sample_every=stride)
        out[name] = traj
    t = np.asarray(out["linear-short"].t)
    out["t"] = t
    out["exact-gamma"] = np.asarray(gamma_exact(g, s, t))
    out["exact-coherence"] = np.asarray(coherence_exact(g, s, t))
    out["exact-width"] = np.asarray(ensemble_width_exact(g, t))
    return out


def cmd_figures(bundle_moderate: ConfigBundle, bundle_strong: ConfigBundle,
                outdir) -> int:
    os.makedirs(outdir, exist_ok=True)
    s_m = bundle_moderate.scenario
    s_s = bundle_strong.scenario
    t_b = characteristic_time(s_m)

    # fig 1: gamma models and their coherence lengths, one scenario, [0, 5 t_b]
    c = _model_curves(s_m, 5.0 * t_b)
    t = c["t"]
    gm_short = GammaModel.linear_short(s_m, t0=s_m.t0)
    gm_long = GammaModel.linear_long(s_m, s_m.alpha0, 0.0)
    fig1a = render_plot(
        [
            Curve.of("exact", t, c["exact-gamma"]),
            Curve.of("linear-short", t, [gamma_model_eval(gm_short, tv) for tv in t], dash="6,4"),
            Curve.of("linear-long", t, [gamma_model_eval(gm_long, tv) for tv in t], dash="2,3"),
        ],
        title=f"decoherence coupling, {s_m.label}",
        xlabel="t", ylabel="gamma(t)",
        provenance=f"scenario {s_m.label}: closed form vs prescribed couplings",
    )
    write_svg(os.path.join(outdir, "fig1a.svg"), fig1a)

    def coh(traj):
        a = np.asarray(traj.alpha)
        g = np.asarray(traj.gamma)
        return 1.0 / np.sqrt(a + g)

    fig1b = render_plot(
        [
            Curve.of("exact", t, c["exact-coherence"]),
            Curve.of("linear-short", t, coh(c["linear-short"]), dash="6,4"),
            Curve.of("linear-long", t, coh(c["linear-long"]), dash="2,3"),
        ],
        title=f"coherence length, {s_m.label}",
        xlabel="t", ylabel="l(t)",
        provenance=f"scenario {s_m.label}: coherence of exact vs prescribed flows",
    )
    write_svg(os.path.join(outdir, "fig1b.svg"), fig1b)

    # fig 2: exact vs linear-long across both presets, [0, 10 t_b], t/t_b axis
    curves_l, curves_w = [], []
    for s in (s_m, s_s):
        tb = characteristic_time(s)
        c = _model_curves(s, 10.0 * tb)
        tt = c["t"] / tb
        long_traj = c["linear-long"]
        curves_l.append(Curve.of(f"{s.label} exact", tt, c["exact-coherence"]))
        curves_l.append(Curve.of(f"{s.label} linear", tt, coh(long_traj), dash="6,4"))
        curves_w.append(Curve.of(f"{s.label} exact", tt, c["exact-width"]))
        curves_w.append(Curve.of(
            f"{s.label} linear", tt,
            0.5 / np.sqrt(np.asarray(long_traj.alpha)), dash="6,4"))
    fig2a = render_plot(
        curves_l, title="coherence length, exact vs linear",
        xlabel="t / t_b", ylabel="l(t)", ylog=True,
        provenance="both presets: exact closed form vs linear-long coupling",
    )
    write_svg(os.path.join(outdir, "fig2a.svg"), fig2a)
    fig2b = render_plot(
        curves_w, title="ensemble width, exact vs linear",
        xlabel="t / t_b", ylabel="sigma(t)", ylog=True,
        provenance="both presets: exact closed form vs linear-long coupling",
    )
    write_svg(os.path.join(outdir, "fig2b.svg"), fig2b)
    return EXIT_OK


# --- verify command -------------------------------------------------------


def cmd_verify(bundle: ConfigBundle) -> int:
    s, num = bundle.scenario, bundle.numerics
    checks: list = []  # (name, value, threshold, status, note)

    def add(name, value, threshold, note=""):
        status = "PASS" if value <= threshold else "FAIL"
        checks.append((name, value, threshold, status, note))

    def skip(name, note):
        checks.append((name, None, None, "SKIP", note))

    cs, _, reports = _g_checks(s)
    for rep in reports:
        add(rep.name, rep.residual, rep.threshold)

    grid1 = GridSpec1D(n_points=256, extent=4.0 * s.b)
    tau1 = grid1.points()
    a_probe = ComplexField1D(
        np.exp(-s.alpha0 * tau1 * tau1).astype(complex), grid1, t=0.0)
    _, gauge = gauge_transform(a_probe, cs, 0.3 * tau1 / s.b)
    add("gauge invariance of the joint product", gauge.max_psi_deviation, 1e-12)
    add("gauge potential shift law", gauge.max_gauge_law_residual, 1e-8)

    if s.lam == 0.0:
        skip("marginal-equation residual",
             "Lambda = 0: the coupling vanishes, decoherence-specific check")
        for n in range(3):
            skip(f"hierarchy residual order {n}",
                 "Lambda = 0: decoherence-specific check")
    else:
        t_b = characteristic_time(s)
        horizon = min(num.t_end, 0.1 * t_b)
        n_steps = max(8, int(round(horizon / num.dt)))
        stride = max(1, n_steps // 4)
        grid = GridSpec1D(n_points=512, extent=16.0 * s.b)
        lse_num = NumericsSpec(dt=num.dt, t_end=n_steps * num.dt,
                               sample_every=stride, ln_floor=num.ln_floor,
                               fit_window=num.fit_window)
        _, fields = evolve_lse(init_gaussian_a(_pure_params(s.alpha0), grid),
                               s, lse_num, keep_fields=True)
        res = marginalme_residual(fields, s, ln_floor=num.ln_floor)
        add("marginal-equation residual", res, 1e-3,
            note="sensitive to dt: the sampled time derivative converges as"
                 " (sample spacing)^2; reduce dt if this fails")

        gcub = build_cubic(s, s.alpha0, 0.0)
        params_fn = lambda t: params_exact(gcub, s, t)
        z = np.linspace(-3.0 * s.b, 3.0 * s.b, 64)
        for n in range(3):
            add(f"hierarchy residual order {n}",
                qseries_residual(params_fn, s, n, t_b, z), 1e-6)

    name_w = max(len(c[0]) for c in checks)
    print(f"{'check':<{name_w}}  {'residual':>12}  {'threshold':>10}  status")
    failed = []
    for name, value, threshold, status, note in checks:
        val_s = f"{value:.3e}" if value is not None else "-"
        thr_s = f"{threshold:.0e}" if threshold is not None else "-"
        print(f"{name:<{name_w}}  {val_s:>12}  {thr_s:>10}  {status}")
        if status == "SKIP":
            print(f"{'':<{name_w}}  skipped: {note}")
        if status == "FAIL":
            failed.append((name, value, threshold, note))
    if failed:
        print()
        for name, value, threshold, note in failed:
            msg = f"FAILED {name}: residual {value:.3e} exceeds {threshold:.0e}"
            if note:
                msg += f" ({note})"
            print(msg)
        return EXIT_FAILURE
    return EXIT_OK


# --- checkpoint-resume command --------------------------------------------


def cmd_checkpoint_resume(bundle: ConfigBundle, checkpoint_path, outdir) -> int:
    os.makedirs(outdir, exist_ok=True)
    s, num = bundle.scenario, bundle.numerics
    f = load_field_2d(checkpoint_path)
    extra = [f"resumed_from_t = {f.t!r}",
             f"checkpoint = {os.fspath(checkpoint_path)}"]
    try:
        samples, _ = evolve_master_eq(f, s, num)
    except Exception as exc:
        _write_text(os.path.join(outdir, "MANIFEST.txt"),
                    _manifest_text(bundle, ["master-eq"], outdir,
                                   f"failed: master-eq resume: {exc}", extra))
        print(f"resume failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    rows = [_rows_from_samples(smp) for smp in samples]
    _write_csv(os.path.join(outdir, "master-eq.csv"), CSV_COLUMNS, rows)
    sentinel = any(row["flags"] for row in rows)
    status = ("ok (grid-adequacy sentinel tripped: aliasing flagged)"
              if sentinel else "ok")
    _write_text(os.path.join(outdir, "MANIFEST.txt"),
                _manifest_text(bundle, ["master-eq"], outdir, status, extra))
    return EXIT_SENTINEL if sentinel else EXIT_OK


# --- argument parsing ------------------------------------------------------


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--config", help="config file path (key = value lines)")
    group.add_argument("--preset", choices=("moderate", "strong"),
                       help="built-in scenario preset")
    p.add_argument("--outdir", default=".", help="output directory")


def _bundle_of(args) -> ConfigBundle:
    if args.config:
        return load_scenario(args.config)
    if args.preset:
        return preset_bundle(args.preset)
    return default_bundle()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decwt",
        description="collisional-decoherence simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute solver routes, emit CSVs")
    _add_scenario_args(p_run)
    p_run.add_argument("--routes", default="analytic,ode",
                       help=f"comma-separated subset of {','.join(ROUTES)}")
    p_run.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N", help="checkpoint master-eq every N steps")

    p_fig = sub.add_parser("figures", help="write the comparison SVG figures")
    _add_scenario_args(p_fig)

    p_ver = sub.add_parser("verify", help="structural-identity residual table")
    _add_scenario_args(p_ver)

    p_res = sub.add_parser("checkpoint-resume",
                           help="continue a master-eq run from a checkpoint")
    _add_scenario_args(p_res)
    p_res.add_argument("--checkpoint", required=True,
                       help="binary checkpoint file written by run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            routes = [r for r in (x.strip() for x in args.routes.split(","))
                      if r]
            if not routes:
                print("error: empty routes list", file=sys.stderr)
                return 2
            bad = [r for r in routes if r not in ROUTES]
            if bad:
                print(f"error: unknown routes {bad}; choose from {ROUTES}",
                      file=sys.stderr)
                return 2
            return cmd_run(_bundle_of(args), routes, args.outdir,
                           args.checkpoint_every)
        if args.command == "figures":
            moderate = (load_scenario(args.config) if args.config
                        else preset_bundle(args.preset or "moderate"))
            return cmd_figures(moderate, preset_bundle("strong"), args.outdir)
        if args.command == "verify":
            return cmd_verify(_bundle_of(args))
        if args.command == "checkpoint-resume":
            return cmd_checkpoint_resume(_bundle_of(args), args.checkpoint,
                                         args.outdir)
        raise AssertionError(f"unhandled command {args.command!r}")
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
