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

CSV schema (time-series routes): the fields of ObservableSample, in order,
    t, alpha, beta, gamma, delta, coherence_length, ensemble_width, purity,
    norm, flags
with empty fields where a route does not produce a column. Floats are written
with repr so reruns are byte-identical. All writes go through a temp file and
a rename (fields.atomic_open).

Exit codes: 0 success; 1 route or command failure; 2 usage error (argparse
convention); 3 completed but the grid-adequacy sentinel tripped (aliasing
flag raised or the grid failed the 6-sigma check).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .fields import ComplexField1D, atomic_open, load_field_2d, save_field_2d
from .gaussian import (
    GaussianParams,
    build_cubic,
    coherence_exact,
    ensemble_width_exact,
    gamma_exact,
    params_exact,
)
from .gfunc import (
    THRESHOLD,
    ConditionalSampler,
    IdentityReport,
    compute_g_table,
    gauge_transform,
    kernel_from_k_derivative,
    reconstruct_from_column,
    verify_g_identities,
)
from .lse import evolve_lse, init_gaussian_a, marginalme_residual
from .marginal_dynamics import (
    integrate_closed_system,
    integrate_prescribed_gamma,
    linear_long,
    linear_short,
    sample_grid,
)
from .master_eq import (
    HERMITICITY_BOUND,
    GridSizeError,
    evolve_master_eq,
    init_gaussian_rho,
)
from .observables import (
    FD_STEP,
    ObservableSample,
    hermiticity_defect,
    qseries_residual,
)
from .scenario import (
    ConfigBundle,
    GridSpec1D,
    NumericsSpec,
    characteristic_time,
    config_lines,
    default_bundle,
    load_scenario,
    preset_bundle,
)
from .svgplot import Curve, render_plot, write_svg

CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ObservableSample))

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_SENTINEL = 3


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):  # ObservableSample.flags
        return ";".join(v)
    v = float(v)
    if math.isnan(v):
        return ""
    return repr(v)


def _quote(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path, header: tuple, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = row if isinstance(row, dict) else vars(row)
        lines.append(",".join(_quote(_fmt(cells.get(col))) for col in header))
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _pure_params(alpha0: float) -> GaussianParams:
    return GaussianParams(alpha=alpha0, beta=0.0, gamma=0.0,
                          delta=0.5 * math.log(2.0 * alpha0 / math.pi))


# --- route runners --------------------------------------------------------


def _gaussian_sample(t, a, b, g, d, norm) -> ObservableSample:
    """The Gaussian observables of the parameters (a, b, g, d) at time t."""
    return ObservableSample(
        t=t, alpha=a, beta=b, gamma=g, delta=d,
        coherence_length=1.0 / math.sqrt(a + g),
        ensemble_width=0.5 / math.sqrt(a),
        purity=math.sqrt(a / (a + g)),
        norm=norm,
    )


def _sample_times(num: NumericsSpec) -> list[float]:
    return [k * num.dt for k in sample_grid(0.0, num.t_end, num.dt, num.sample_every)]


def run_analytic(bundle: ConfigBundle) -> list[ObservableSample]:
    s, num = bundle.scenario, bundle.numerics
    g = build_cubic(s, s.alpha0, 0.0)
    ps = ((t, params_exact(g, s, t)) for t in _sample_times(num))
    return [_gaussian_sample(t, p.alpha, p.beta, p.gamma, p.delta, 1.0) for t, p in ps]


def run_ode(bundle: ConfigBundle) -> list[ObservableSample]:
    s, num = bundle.scenario, bundle.numerics
    traj = integrate_closed_system(s, s.alpha0, 0.0, dt=num.dt,
                                   t_end=num.t_end, sample_every=num.sample_every)
    cols = (traj.t, traj.alpha, traj.beta, traj.gamma, traj.delta)
    return [_gaussian_sample(t, a, b, g, d, math.exp(d) * math.sqrt(math.pi / (2.0 * a)))
            for t, a, b, g, d in zip(*(c.tolist() for c in cols))]


def run_master_eq(bundle: ConfigBundle, checkpoint_every: int = 0,
                  outdir: str = ".") -> list[ObservableSample]:
    s, num = bundle.scenario, bundle.numerics
    f = init_gaussian_rho(_pure_params(s.alpha0), bundle.grid)

    def sink(fld):
        step = int(round(fld.t / num.dt))
        save_field_2d(os.path.join(outdir, f"master-eq-step{step:06d}.ckpt"), fld)

    return evolve_master_eq(f, s, num, checkpoint_every=checkpoint_every,
                            checkpoint_sink=sink)[0]


def run_lse(bundle: ConfigBundle) -> list[ObservableSample]:
    s, num = bundle.scenario, bundle.numerics
    grid = bundle.grid.axis_z  # the tau axis reuses the spread-sized z axis
    a = init_gaussian_a(_pure_params(s.alpha0), grid)
    return evolve_lse(a, s, num)[0]


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
    table = compute_g_table(cs, tau)
    return cs, table, verify_g_identities(table, cs)


def run_gfunc(bundle: ConfigBundle) -> list[dict]:
    cs, table, reports = _g_checks(bundle.scenario)
    rebuilt = reconstruct_from_column(table)
    reports.append(IdentityReport(
        "reconstruction from one-sided column",
        max(float(np.max(np.abs(rebuilt[k] - table.entries[k])))
            for k in table.entries), THRESHOLD))
    reports.append(IdentityReport(
        "kernel y-derivative at zero gauge potential",
        abs(kernel_from_k_derivative(cs, tau0=0.0)), THRESHOLD))
    return [{"name": rep.name, "value": rep.residual, "threshold": rep.threshold,
             "status": "pass" if rep.passed else "fail"} for rep in reports]


HIERARCHY_HEADER = ("t", "res0", "res1", "res2")


def _hierarchy_residuals(s, g, t: float) -> list[float]:
    """Hierarchy residuals of orders 0..2 along the closed form of cubic g at
    time t, on 64 z points over [-3b, 3b]."""
    z = np.linspace(-3.0 * s.b, 3.0 * s.b, 64)
    return [qseries_residual(lambda tv: params_exact(g, s, tv), s, n, t, z)
            for n in range(3)]


def run_hierarchy(bundle: ConfigBundle) -> list[dict]:
    # residuals use a centered time difference of half-width FD_STEP, so the
    # first sampled time below FD_STEP (t = 0 in practice) is not evaluable
    s, num = bundle.scenario, bundle.numerics
    g = build_cubic(s, s.alpha0, 0.0)
    return [dict(zip(HIERARCHY_HEADER, (t, *_hierarchy_residuals(s, g, t))))
            for t in _sample_times(num) if t >= FD_STEP]


# route -> (runner, CSV header); CSV_COLUMNS marks a series of ObservableSamples
ROUTES = {
    "analytic": (run_analytic, CSV_COLUMNS),
    "ode": (run_ode, CSV_COLUMNS),
    "master-eq": (run_master_eq, CSV_COLUMNS),
    "lse": (run_lse, CSV_COLUMNS),
    "gfunc": (run_gfunc, GFUNC_HEADER),
    "hierarchy": (run_hierarchy, HIERARCHY_HEADER),
}


# --- run command ----------------------------------------------------------


def _comparison_rows(per_route: dict) -> tuple[tuple, list]:
    """Join the time-series routes on exact sample times, columns in route
    table order."""
    by_t = {r: {smp.t: smp for smp in per_route[r]} for r in ROUTES if r in per_route}
    common = sorted(set.intersection(*map(set, by_t.values()))) if by_t else []
    cols = [(r, c, f"{r.replace('-', '_')}_{c}")
            for r, at in by_t.items() for c in CSV_COLUMNS[1:-1]
            if any(_fmt(getattr(smp, c)) for smp in at.values())]
    rows = [{"t": t, **{name: getattr(by_t[r][t], c) for r, c, name in cols}}
            for t in common]
    return ("t",) + tuple(name for _, _, name in cols), rows


def _write_manifest(bundle: ConfigBundle, routes, outdir, status: str,
                    extra: tuple = ()) -> None:
    label, *params = config_lines(bundle)
    lines = [
        label,
        f"routes = {','.join(routes)}",
        f"outdir = {os.fspath(outdir)}",
        "determinism = seedless; fixed-step integrators; identical configs"
        " give byte-identical CSVs",
        *params,
        f"status = {status}",
        *extra,
    ]
    with atomic_open(os.path.join(outdir, "MANIFEST.txt")) as fh:
        fh.write("\n".join(lines) + "\n")


def _status(failures: list, aliasing: bool) -> str:
    if failures:
        return "failed: " + "; ".join(failures)
    if aliasing:
        return "ok (grid-adequacy sentinel tripped: aliasing flagged)"
    return "ok"


def cmd_run(bundle: ConfigBundle, routes: list, outdir,
            checkpoint_every: int = 0) -> int:
    os.makedirs(outdir, exist_ok=True)
    per_route: dict = {}  # time-series route -> its samples
    grid_failures: list = []
    hard_failures: list = []
    aliasing = False

    for route in routes:
        runner, header = ROUTES[route]
        try:
            rows = (runner(bundle, checkpoint_every, os.fspath(outdir))
                    if runner is run_master_eq else runner(bundle))
        except GridSizeError as exc:
            grid_failures.append(f"{route}: {exc}")
            continue
        except Exception as exc:  # route failure: keep going, report at exit
            hard_failures.append(f"{route}: {exc}")
            continue

        _write_csv(os.path.join(outdir, f"{route}.csv"), header, rows)
        if header is CSV_COLUMNS:
            per_route[route] = rows
            aliasing = aliasing or any(smp.flags for smp in rows)

    if per_route:
        header, rows = _comparison_rows(per_route)
        _write_csv(os.path.join(outdir, "comparison.csv"), header, rows)

    failures = grid_failures + hard_failures
    _write_manifest(bundle, routes, outdir, _status(failures, aliasing))

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


def _model_curves(s, t_end: float, short: bool = True):
    """Exact and prescribed-model trajectories on [0, t_end], 5000 RK4 steps
    sampled every 25th; the linear-short one only when short."""
    dt = t_end / 5000.0
    g = build_cubic(s, s.alpha0, 0.0)
    models = {"linear-long": linear_long(s, s.alpha0, 0.0)}
    if short:
        models["linear-short"] = linear_short(s)
    out = {name: integrate_prescribed_gamma(s, s.alpha0, 0.0, gamma_l, dt=dt,
                                            t_end=t_end, sample_every=25)
           for name, gamma_l in models.items()}
    out["t"] = t = out["linear-long"].t
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
    fig1a = render_plot(
        [
            Curve.of("exact", t, c["exact-gamma"]),
            Curve.of("linear-short", t, c["linear-short"].gamma, dash="6,4"),
            Curve.of("linear-long", t, c["linear-long"].gamma, dash="2,3"),
        ],
        title=f"decoherence coupling, {s_m.label}",
        xlabel="t", ylabel="gamma(t)",
        provenance=f"scenario {s_m.label}: closed form vs prescribed couplings",
    )
    write_svg(os.path.join(outdir, "fig1a.svg"), fig1a)

    def coh(traj):  # NaN where a prescribed gamma leaves no coherence scale
        scale = traj.alpha + traj.gamma
        return 1.0 / np.sqrt(np.where(scale > 0.0, scale, np.nan))

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
        c = _model_curves(s, 10.0 * tb, short=False)
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
    checks: list = []  # (name, IdentityReport or None when skipped, note)

    def add(name, value, threshold, note=""):
        checks.append((name, IdentityReport(name, value, threshold), note))

    def skip(name, note):
        checks.append((name, None, note))

    cs, _, reports = _g_checks(s)
    checks += [(rep.name, rep, "") for rep in reports]

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
        lse_num = dataclasses.replace(num, t_end=n_steps * num.dt,
                                      sample_every=stride)
        _, fields = evolve_lse(init_gaussian_a(_pure_params(s.alpha0), grid),
                               s, lse_num)
        res = marginalme_residual(fields, s, ln_floor=num.ln_floor)
        add("marginal-equation residual", res, 1e-3,
            note="sensitive to dt: the sampled time derivative converges as"
                 " (sample spacing)^2; reduce dt if this fails")

        res = _hierarchy_residuals(s, build_cubic(s, s.alpha0, 0.0), t_b)
        for n in range(3):
            add(f"hierarchy residual order {n}", res[n], 1e-6)

    name_w = max(len(c[0]) for c in checks)
    print(f"{'check':<{name_w}}  {'residual':>12}  {'threshold':>10}  status")
    failed = []
    for name, rep, note in checks:
        if rep is None:
            print(f"{name:<{name_w}}  {'-':>12}  {'-':>10}  SKIP")
            print(f"{'':<{name_w}}  skipped: {note}")
            continue
        print(f"{name:<{name_w}}  {rep.residual:>12.3e}  {rep.threshold:>10.0e}  "
              f"{'PASS' if rep.passed else 'FAIL'}")
        if not rep.passed:
            failed.append((rep, note))
    if failed:
        print()
        for rep, note in failed:
            msg = (f"FAILED {rep.name}: residual {rep.residual:.3e} exceeds"
                   f" {rep.threshold:.0e}")
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
    extra = (f"resumed_from_t = {f.t!r}",
             f"checkpoint = {os.fspath(checkpoint_path)}")
    try:
        defect = hermiticity_defect(f)
        if defect > HERMITICITY_BOUND:  # evolve_master_eq would give wrong rows
            raise ValueError(f"checkpoint field is not Hermitian (defect "
                             f"{defect:.3g} > {HERMITICITY_BOUND:g})")
        samples, _ = evolve_master_eq(f, s, num)
    except Exception as exc:
        _write_manifest(bundle, ["master-eq"], outdir,
                        _status([f"master-eq resume: {exc}"], False), extra)
        print(f"resume failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    _write_csv(os.path.join(outdir, "master-eq.csv"), CSV_COLUMNS, samples)
    sentinel = any(smp.flags for smp in samples)
    _write_manifest(bundle, ["master-eq"], outdir, _status([], sentinel), extra)
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
    def count(text: str) -> int:  # argparse names it in "invalid count value"
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
        return n

    parser = argparse.ArgumentParser(
        prog="decwt",
        description="collisional-decoherence simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute solver routes, emit CSVs")
    _add_scenario_args(p_run)
    p_run.add_argument("--routes", default="analytic,ode",
                       help=f"comma-separated subset of {','.join(ROUTES)}")
    p_run.add_argument("--checkpoint-every", type=count, default=0,
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
                print(f"error: unknown routes {bad}; choose from {tuple(ROUTES)}",
                      file=sys.stderr)
                return 2
            twice = sorted({r for r in routes if routes.count(r) > 1})
            if twice:
                print(f"error: routes named more than once: {twice}",
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
