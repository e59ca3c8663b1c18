"""Command-line interface: CSV contracts, determinism, figures, verification
exit codes, and checkpoint resume. Commands are invoked in-process through
cli.main, which returns the exit code."""
import csv
import io
import math
import re

import numpy as np
import pytest

from decwt import cli
from decwt.fields import load_field_2d, save_field_2d
from decwt.scenario import config_lines, load_scenario, parse_config


SMALL_CFG = """\
label = probe
n_y = 64
n_z = 64
extent_y = 12.0
extent_z = 14.0
dt = 0.001
t_end = 0.05
sample_every = 10
"""


def write_cfg(tmp_path, text=SMALL_CFG, name="small.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    rdr = csv.reader(io.StringIO(path.read_text()))
    header = next(rdr)
    rows = [dict(zip(header, rec)) for rec in rdr]
    return header, rows


def test_run_analytic_ode_gamma_agreement(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,ode",
                     "--outdir", str(out)]) == 0
    header_a, rows_a = read_csv(out / "analytic.csv")
    header_o, rows_o = read_csv(out / "ode.csv")
    assert header_a == list(cli.CSV_COLUMNS)
    assert header_o == list(cli.CSV_COLUMNS)
    assert len(rows_a) == len(rows_o) == 6  # t = 0, .01, ..., .05
    for ra, ro in zip(rows_a, rows_o):
        assert ra["t"] == ro["t"]
        assert abs(float(ra["gamma"]) - float(ro["gamma"])) < 1e-6
        assert abs(float(ra["alpha"]) - float(ro["alpha"])) < 1e-6


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    names = ("analytic.csv", "ode.csv", "lse.csv", "comparison.csv",
             "MANIFEST.txt")
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,ode,lse",
                     "--outdir", str(d1)]) == 0
    first = {n: (d1 / n).read_bytes() for n in names}
    # identical invocation into the same directory: every byte reproduced
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,ode,lse",
                     "--outdir", str(d1)]) == 0
    for n in names:
        assert (d1 / n).read_bytes() == first[n], n
    # different outdir: data files identical (MANIFEST embeds the outdir)
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,ode,lse",
                     "--outdir", str(d2)]) == 0
    for n in names[:-1]:
        assert (d2 / n).read_bytes() == first[n], n


def test_comparison_csv_aligns_routes(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg,
                     "--routes", "analytic,master-eq",
                     "--outdir", str(out)]) == 0
    header, rows = read_csv(out / "comparison.csv")
    assert header[0] == "t"
    assert "analytic_gamma" in header
    assert "master_eq_coherence_length" in header
    assert "master_eq_alpha" not in header  # grid route fits no parameters
    for row in rows:
        l_a = float(row["analytic_coherence_length"])
        l_m = float(row["master_eq_coherence_length"])
        assert abs(l_a - l_m) < 1e-6


def test_comparison_columns_follow_the_route_table(tmp_path):
    cfg = write_cfg(tmp_path)
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["run", "--config", cfg, "--routes", "lse,master-eq,analytic",
                     "--outdir", str(d1)]) == 0
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,master-eq,lse",
                     "--outdir", str(d2)]) == 0
    text = (d1 / "comparison.csv").read_bytes()
    assert text == (d2 / "comparison.csv").read_bytes()
    header = text.decode().splitlines()[0].split(",")
    assert (header.index("analytic_alpha") < header.index("master_eq_purity")
            < header.index("lse_alpha"))


def test_master_eq_csv_has_empty_param_fields(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--outdir", str(out)]) == 0
    _, rows = read_csv(out / "master-eq.csv")
    for row in rows:
        assert row["alpha"] == "" and row["delta"] == ""
        assert float(row["norm"]) == pytest.approx(1.0, abs=1e-12)


def test_gfunc_route_residual_report(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "gfunc",
                     "--outdir", str(out)]) == 0
    header, rows = read_csv(out / "gfunc.csv")
    assert header == list(cli.GFUNC_HEADER)
    assert len(rows) == 8
    for row in rows:
        assert row["status"] == "pass"
        assert float(row["value"]) <= float(row["threshold"])
    assert not (out / "comparison.csv").exists()


def test_hierarchy_route_time_series(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "hierarchy",
                     "--outdir", str(out)]) == 0
    header, rows = read_csv(out / "hierarchy.csv")
    assert header == list(cli.HIERARCHY_HEADER)
    assert all(float(r["t"]) >= 1e-4 for r in rows)  # fd-step guard drops t=0
    for row in rows:
        for col in ("res0", "res1", "res2"):
            assert float(row[col]) < 1e-6


def test_manifest_content(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace(
        "t_end = 0.05", "t_end = 0.30000000000000004"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "analytic",
                     "--outdir", str(out)]) == 0
    text = (out / "MANIFEST.txt").read_text()
    assert "label = probe" in text
    assert "routes = analytic" in text
    assert "determinism = seedless" in text
    assert "dt = 0.001" in text
    assert "status = ok" in text
    # every other line is a config line, and they reload to the run's bundle
    params = [line for line in text.splitlines() if line.partition(" = ")[0]
              not in ("routes", "outdir", "determinism", "status")]
    bundle = load_scenario(cfg)
    assert params == config_lines(bundle)
    reloaded = parse_config("\n".join(params))
    assert reloaded == bundle
    assert repr(reloaded.numerics.t_end) == "0.30000000000000004"


def test_empty_routes_usage_error(tmp_path):
    assert cli.main(["run", "--routes", "", "--outdir", str(tmp_path)]) == 2


def test_unknown_route_usage_error(tmp_path):
    assert cli.main(["run", "--routes", "warp", "--outdir", str(tmp_path)]) == 2


def test_route_named_twice_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--routes", "analytic,ode, analytic",
                     "--outdir", str(out)]) == 2
    assert "analytic" in capsys.readouterr().err
    assert not out.exists()


def test_negative_checkpoint_every_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--routes", "analytic", "--checkpoint-every", "-3",
                  "--outdir", str(out)])
    assert exc.value.code == 2
    assert "--checkpoint-every" in capsys.readouterr().err
    assert not out.exists()


def test_config_and_preset_conflict(tmp_path):
    cfg = write_cfg(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", cfg, "--preset", "moderate",
                  "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_non_finite_config_value_fails_before_any_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("dt = 0.001", "dt = inf"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,ode",
                     "--outdir", str(out)]) == 1
    assert not list(out.glob("*.csv"))
    assert "line 6: dt" in capsys.readouterr().err


def test_undersized_grid_trips_sentinel_exit(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("extent_z = 14.0",
                                                "extent_z = 9.0"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--outdir", str(out)]) == 3
    assert "failed: master-eq" in (out / "MANIFEST.txt").read_text()
    assert not (out / "master-eq.csv").exists()


def test_boundary_leak_trips_sentinel_exit(tmp_path):
    # box legal at t = 0 (6 sigma exactly) but the spread crosses the edge
    cfg = write_cfg(tmp_path, """\
label = leak
n_y = 64
n_z = 64
extent_y = 12.0
extent_z = 12.0
dt = 0.001
t_end = 0.6
sample_every = 100
""")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--outdir", str(out)]) == 3
    _, rows = read_csv(out / "master-eq.csv")
    assert any("aliasing" in row["flags"] for row in rows)
    assert "sentinel" in (out / "MANIFEST.txt").read_text()


def test_partial_outputs_survive_route_failure(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("extent_z = 14.0",
                                                "extent_z = 9.0"))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg,
                     "--routes", "analytic,master-eq",
                     "--outdir", str(out)])
    assert code == 3
    assert (out / "analytic.csv").exists()  # healthy route retained


def test_figures_written_and_deterministic(tmp_path):
    d1, d2 = tmp_path / "f1", tmp_path / "f2"
    assert cli.main(["figures", "--outdir", str(d1)]) == 0
    assert cli.main(["figures", "--outdir", str(d2)]) == 0
    for name in ("fig1a.svg", "fig1b.svg", "fig2a.svg", "fig2b.svg"):
        text = (d1 / name).read_text()
        assert text.startswith("<svg ")
        assert "<polyline" in text
        assert '<!-- data "' in text  # embedded provenance data
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    # fig1 carries three curves, fig2 four (two presets x two models)
    assert (d1 / "fig1a.svg").read_text().count("<polyline") == 3
    assert (d1 / "fig2a.svg").read_text().count("<polyline") == 4


def test_figures_integrate_only_the_plotted_couplings(tmp_path, monkeypatch):
    calls = []
    real = cli.integrate_prescribed_gamma

    def counting(*args, **kwargs):
        calls.append(kwargs["t_end"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_prescribed_gamma", counting)
    assert cli.main(["figures", "--outdir", str(tmp_path)]) == 0
    # fig 1: linear-short and linear-long; fig 2: linear-long per preset
    assert len(calls) == 4


def test_figures_embedded_data_matches_curves(tmp_path):
    out = tmp_path / "figs"
    assert cli.main(["figures", "--outdir", str(out)]) == 0
    text = (out / "fig1a.svg").read_text()
    # the exact and linear-short couplings are tangent at t = 0: both start 0
    block = text.split('<!-- data "exact" (x,y):\n', 1)[1]
    first = block.splitlines()[0]
    t0, g0 = (float(v) for v in first.split(","))
    assert t0 == 0.0 and g0 == 0.0


def test_figures_late_t0_leaves_nan_coherence_out_of_polylines(tmp_path, capsys):
    # linear-short gamma is negative before t0, so alpha + gamma drops below
    # zero early on: no coherence scale there, NaN in the data, no point drawn
    cfg = write_cfg(tmp_path, "t0 = 0.3\n", name="late.cfg")
    out = tmp_path / "figs"
    assert cli.main(["figures", "--config", cfg, "--outdir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    text = (out / "fig1b.svg").read_text()
    block = text.split('<!-- data "linear-short" (x,y):\n', 1)[1]
    ys = [float(row.split(",")[1]) for row in block.split("\n-->", 1)[0].splitlines()]
    n_nan = sum(math.isnan(y) for y in ys)
    assert n_nan > 0
    polylines = re.findall(r'<polyline [^>]*points="([^"]*)"', text)
    assert len(polylines[1].split()) == len(ys) - n_nan  # curve order: exact first


def test_verify_passes_on_moderate(tmp_path, capsys):
    assert cli.main(["verify", "--preset", "moderate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "marginal-equation residual" in out


def test_verify_fails_on_coarse_dt(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "dt = 0.1\nt_end = 2.0\n", name="coarse.cfg")
    assert cli.main(["verify", "--config", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAILED marginal-equation residual" in out
    assert "reduce dt" in out  # explanatory message


def test_verify_skips_decoherence_checks_at_zero_coupling(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "Lambda = 0.0\n", name="free.cfg")
    assert cli.main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("SKIP") == 4
    assert "FAIL" not in out
    assert "decoherence-specific" in out


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("t_end = 0.05",
                                                "t_end = 0.03")
                    .replace("sample_every = 10", "sample_every = 5"))
    full, res = tmp_path / "full", tmp_path / "res"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "10", "--outdir", str(full)]) == 0
    ckpt = full / "master-eq-step000010.ckpt"
    assert ckpt.exists()
    assert cli.main(["checkpoint-resume", "--config", cfg,
                     "--checkpoint", str(ckpt), "--outdir", str(res)]) == 0

    full_lines = (full / "master-eq.csv").read_text().splitlines()
    res_lines = (res / "master-eq.csv").read_text().splitlines()
    assert res_lines[0] == full_lines[0]  # same header
    # resumed rows are byte-identical to the uninterrupted tail from t = 0.01
    tail = [ln for ln in full_lines[1:] if float(ln.split(",")[0]) >= 0.01]
    assert res_lines[1:] == tail
    assert "resumed_from_t = 0.01" in (res / "MANIFEST.txt").read_text()


def test_checkpoint_resume_at_misaligned_step_keeps_the_time_grid(tmp_path):
    # step 7 is not a multiple of sample_every = 5: the resumed run still
    # samples on 0.01, 0.015, ... like the run it continues
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("t_end = 0.05",
                                                "t_end = 0.03")
                    .replace("sample_every = 10", "sample_every = 5"))
    full, res = tmp_path / "full", tmp_path / "res"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "7", "--outdir", str(full)]) == 0
    assert cli.main(["checkpoint-resume", "--config", cfg, "--checkpoint",
                     str(full / "master-eq-step000007.ckpt"),
                     "--outdir", str(res)]) == 0
    _, rows_full = read_csv(full / "master-eq.csv")
    _, rows_res = read_csv(res / "master-eq.csv")
    assert [float(r["t"]) for r in rows_res] == pytest.approx(
        [0.007, 0.01, 0.015, 0.02, 0.025, 0.03], rel=0, abs=1e-15)
    # not bitwise: the resumed run restarts from the checkpoint's real-space
    # copy, the uninterrupted one goes on from its own spectral state
    by_t = {round(float(r["t"]), 9): r for r in rows_full}
    for row in rows_res[1:]:
        want = by_t[round(float(row["t"]), 9)]
        for col in ("coherence_length", "ensemble_width", "purity", "norm"):
            assert float(row[col]) == pytest.approx(float(want[col]),
                                                    rel=1e-12, abs=0), col
        assert row["flags"] == want["flags"]


def test_every_route_shares_one_sample_grid(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("t_end = 0.05",
                                                "t_end = 0.023")
                    .replace("sample_every = 10", "sample_every = 5"))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes",
                     "analytic,ode,lse,master-eq,hierarchy",
                     "--outdir", str(out)]) == 0
    want = [0.0, 0.005, 0.01, 0.015, 0.02, 0.023]
    stamps = set()
    for route in ("analytic", "ode", "lse", "master-eq"):
        _, rows = read_csv(out / f"{route}.csv")
        assert [float(r["t"]) for r in rows] == pytest.approx(
            want, rel=0, abs=1e-15), route
        stamps.add(tuple(r["t"] for r in rows))
    assert len(stamps) == 1  # the same stamps to the last digit
    _, rows = read_csv(out / "hierarchy.csv")
    assert [r["t"] for r in rows] == list(stamps.pop()[1:])


def test_checkpoint_resume_refuses_a_non_hermitian_field(tmp_path, capsys):
    # the solver evolves the Hermitian half spectrum only: a field with an
    # anti-Hermitian part would give wrong rows with exit 0
    cfg = write_cfg(tmp_path)
    full = tmp_path / "full"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "10", "--outdir", str(full)]) == 0
    ckpt = full / "master-eq-step000010.ckpt"
    f = load_field_2d(ckpt)
    f.values *= np.exp(0.3j * f.grid.axis_z.points())[None, :]
    bad, res = tmp_path / "bad.ckpt", tmp_path / "res"
    save_field_2d(bad, f)
    assert cli.main(["checkpoint-resume", "--config", cfg,
                     "--checkpoint", str(bad), "--outdir", str(res)]) == 1
    assert "not Hermitian" in capsys.readouterr().err
    assert not (res / "master-eq.csv").exists()
    assert ("status = failed: master-eq resume: checkpoint field is not "
            "Hermitian") in (res / "MANIFEST.txt").read_text()
    ok = tmp_path / "ok"
    assert cli.main(["checkpoint-resume", "--config", cfg,
                     "--checkpoint", str(ckpt), "--outdir", str(ok)]) == 0
    assert (ok / "master-eq.csv").exists()


def test_checkpoint_resume_missing_file(tmp_path):
    assert cli.main(["checkpoint-resume", "--checkpoint",
                     str(tmp_path / "nope.ckpt"),
                     "--outdir", str(tmp_path / "o")]) == 1
