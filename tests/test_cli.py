"""Command-line interface: CSV contracts, determinism, figures, verification
exit codes, and checkpoint resume. Commands are invoked in-process through
cli.main, which returns the exit code."""
import csv
import io
import re

import numpy as np
import pytest

from decwt import cli, gfunc
from decwt.fields import load_field_2d, save_field_2d
from decwt.scenario import config_lines, load_scenario, parse_config, preset_bundle


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
    assert len(rows) == 9
    for row in rows:
        assert row["status"] == "pass"
        assert float(row["value"]) <= float(row["threshold"])
    assert not (out / "comparison.csv").exists()


def test_gfunc_route_fails_on_a_failing_check(tmp_path, monkeypatch):
    # a row with status fail once left the run at exit 0 and status ok. At a
    # zero threshold the two checks with round-off residuals fail
    monkeypatch.setattr(gfunc, "THRESHOLD", 0.0)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,gfunc",
                     "--outdir", str(out)]) == 1
    _, rows = read_csv(out / "gfunc.csv")
    failed = [row["name"] for row in rows if row["status"] == "fail"]
    assert 0 < len(failed) < len(rows)
    status = "; ".join(f"gfunc: {name}" for name in failed)
    assert f"status = failed: {status}\n" in (out / "MANIFEST.txt").read_text()
    assert (out / "analytic.csv").exists()


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--routes", "", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_unknown_route_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--routes", "warp", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_route_named_twice_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--routes", "analytic,ode, analytic",
                  "--outdir", str(out)])
    assert exc.value.code == 2
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


@pytest.mark.parametrize("command", ["run", "figures", "verify"])
def test_no_flag_means_the_moderate_preset(command):
    args = cli.build_parser().parse_args([command])
    assert cli._bundle_of(args) == preset_bundle("moderate")


def test_empty_config_box_holds_the_packet_to_t_end(tmp_path):
    # the old 12 x 24 default box flagged aliasing from t = 1.7 of t_end = 2
    cfg = write_cfg(tmp_path, "n_y = 64\nn_z = 64\n", name="empty.cfg")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,master-eq",
                     "--outdir", str(out)]) == 0
    _, rows = read_csv(out / "master-eq.csv")
    assert rows[-1]["t"] == "2.0"
    assert not any(row["flags"] for row in rows)
    assert "status = ok\n" in (out / "MANIFEST.txt").read_text()


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


def test_boundary_leak_trips_sentinel_exit(tmp_path, capsys):
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
    out, res = tmp_path / "out", tmp_path / "res"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "100", "--outdir", str(out)]) == 3
    _, rows = read_csv(out / "master-eq.csv")
    assert any("aliasing" in row["flags"] for row in rows)
    assert "sentinel" in (out / "MANIFEST.txt").read_text()
    assert "aliasing sentinel tripped" in capsys.readouterr().err
    # a resume reports the sentinel as run does
    assert cli.main(["checkpoint-resume", "--config", cfg, "--checkpoint",
                     str(out / "master-eq-step000100.ckpt"),
                     "--outdir", str(res)]) == 3
    assert "sentinel" in (res / "MANIFEST.txt").read_text()
    assert "aliasing sentinel tripped" in capsys.readouterr().err


def test_partial_outputs_survive_route_failure(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("extent_z = 14.0",
                                                "extent_z = 9.0"))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", cfg,
                     "--routes", "analytic,master-eq",
                     "--outdir", str(out)])
    assert code == 3
    assert (out / "analytic.csv").exists()  # healthy route retained


def test_failing_route_exits_1_and_keeps_the_other_routes(tmp_path, capsys):
    # an 8-point tau axis cannot hold the LSE's 9-point curvature fit window
    cfg = write_cfg(tmp_path, "label = probe\nn_y = 16\nn_z = 8\nt_end = 0.02\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", "analytic,lse",
                     "--outdir", str(out)]) == 1
    msg = "lse: grid: the 9-point fit window around index 4 leaves the 8-point grid"
    assert f"route failed: {msg}" in capsys.readouterr().err
    assert (out / "analytic.csv").exists() and (out / "comparison.csv").exists()
    assert not (out / "lse.csv").exists()
    assert f"status = failed: {msg}\n" in (out / "MANIFEST.txt").read_text()


@pytest.mark.parametrize("text, err", [
    ("sample_every = 0\n", "error: sample_every: must be >= 1"),
    ("dt =\n", "error: line 1: empty key or value"),
], ids=["sample_every-0", "empty-value"])
def test_invalid_config_fails_before_any_output(tmp_path, capsys, text, err):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_cfg(tmp_path, text),
                     "--routes", "analytic", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


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


def _data_labels(svg):
    return re.findall(r'<!-- data "([^"]*)"', svg.read_text())


def test_figure_2_draws_both_presets_whatever_the_preset(tmp_path):
    # figure 1 follows --preset; figure 2 compares the two presets
    out = tmp_path / "figs"
    assert cli.main(["figures", "--preset", "strong", "--outdir", str(out)]) == 0
    assert "strong" in (out / "fig1a.svg").read_text()
    for name in ("fig2a.svg", "fig2b.svg"):
        assert _data_labels(out / name) == [
            "moderate exact", "moderate linear", "strong exact", "strong linear"]


def test_figure_2_ignores_the_config(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_CFG + "Lambda = 3.0\n")
    plain, own = tmp_path / "plain", tmp_path / "own"
    assert cli.main(["figures", "--outdir", str(plain)]) == 0
    assert cli.main(["figures", "--config", cfg, "--outdir", str(own)]) == 0
    assert (own / "fig1a.svg").read_bytes() != (plain / "fig1a.svg").read_bytes()
    for name in ("fig2a.svg", "fig2b.svg"):
        assert (own / name).read_bytes() == (plain / name).read_bytes()


def test_verify_takes_no_outdir(tmp_path):
    # verify writes only its table on stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--outdir", str(tmp_path / "d")])
    assert exc.value.code == 2


def test_checkpoint_every_without_master_eq_usage_error(tmp_path, capsys):
    # no other route writes checkpoints, so the flag would be ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--routes", "analytic", "--checkpoint-every", "5",
                  "--outdir", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--checkpoint-every" in captured.err and "--routes" in captured.err
    assert captured.out == ""
    assert not out.exists()
    # 0 means no checkpoints, which every route honours
    assert cli.main(["run", "--routes", "analytic", "--checkpoint-every", "0",
                     "--outdir", str(out)]) == 0


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
    assert "converges as dt^2; reduce dt if this fails" in out  # explanatory message


@pytest.mark.parametrize("b", [
    pytest.param("0.15", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 13: dt = 1e-3 is too coarse for the"
                            " spreading time 2 b^2 = 0.045; it passes at dt = 5e-4")),
    "0.2", "0.25", "0.5", "0.75", "1", "3", "10"])
@pytest.mark.parametrize("lam", ["1", "10"])
def test_verify_passes_off_preset(tmp_path, capsys, lam, b):
    # the marginal-equation residual differences three consecutive steps,
    # so it converges as dt^2 across packet widths and couplings
    cfg = write_cfg(tmp_path, f"Lambda = {lam}\nb = {b}\n", name="off.cfg")
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("lam", ["1", "10"])
def test_verify_passes_on_the_narrowest_packet_at_half_dt(tmp_path, capsys, lam):
    cfg = write_cfg(tmp_path, f"Lambda = {lam}\nb = 0.15\ndt = 0.0005\n",
                    name="narrowest.cfg")
    assert cli.main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("b", ["0.5", "0.75"])
def test_verify_passes_on_a_narrow_packet(tmp_path, capsys, b):
    # the LSE horizon follows the packet's spreading time 2 b^2 as well as
    # t_b; on t_b alone these packets outran their 16 b box's resolution
    cfg = write_cfg(tmp_path, f"b = {b}\n", name="narrow.cfg")
    assert cli.main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "marginal-equation residual" in out and "FAIL" not in out


def test_verify_passes_on_a_wide_packet(tmp_path, capsys):
    # t_b = 1/(Lambda b^2) = 4.4e-5 lies below the hierarchy's time
    # difference half-width, which evaluated there would reach t < 0
    cfg = write_cfg(tmp_path, "b = 150\n", name="wide.cfg")
    assert cli.main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("hierarchy residual order") == 3 and "FAIL" not in out


@pytest.mark.parametrize("b, strength", [("1e-150", "0.0"), ("1e150", "inf")])
def test_verify_refuses_a_decoherence_strength_off_the_normal_floats(
        tmp_path, capsys, b, strength):
    # Lambda b^4 = 1e-600 once failed with "math domain error" and leaked
    # numpy warnings; 1e600 passed every row on residuals near 1e-308
    cfg = write_cfg(tmp_path, f"b = {b}\n", name="extreme.cfg")
    assert cli.main(["verify", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"b: Lambda b^4 = {strength} must be a finite normal float" in err
    assert f"(Lambda = 1.0, b = {float(b)!r})" in err


def test_verify_refuses_a_closed_form_that_overflows(tmp_path, capsys):
    # Lambda b^4 = 1e-280 is a normal float, but G(t_b) at t_b = 1e140
    # overflows; the hierarchy's closed form once stopped on "math domain
    # error" from the log of alpha = 1/G = 0
    cfg = write_cfg(tmp_path, "b = 1e-70\n", name="tiny.cfg")
    assert cli.main(["verify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "G(t) = inf not finite at t = 1e+140" in err
    assert "math domain error" not in err


def test_verify_refuses_a_coupling_that_overflows(tmp_path, capsys):
    # at b = 1e-40, int_0^t G overflows at t_b = 1e80 while G does not, so
    # gamma(t_b) = inf; it once reached the g-table and the hierarchy, which
    # printed NaN rows after five numpy RuntimeWarnings
    cfg = write_cfg(tmp_path, "b = 1e-40\n", name="tiny.cfg")
    assert cli.main(["verify", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: t: gamma(t) = inf not finite at t = 1")
    assert err.count("\n") == 1


def test_verify_skips_decoherence_checks_at_zero_coupling(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "Lambda = 0.0\n", name="free.cfg")
    assert cli.main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("SKIP") == 4
    assert "FAIL" not in out
    assert "decoherence-specific" in out


def test_run_all_routes_at_zero_coupling(tmp_path):
    # the g-table is built at gamma_k = 0 and every identity still holds
    cfg = write_cfg(tmp_path, SMALL_CFG + "Lambda = 0.0\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--routes", ",".join(cli.ROUTES),
                     "--outdir", str(out)]) == 0
    assert "status = ok" in (out / "MANIFEST.txt").read_text().splitlines()
    _, rows = read_csv(out / "gfunc.csv")
    assert rows and all(r["status"] == "pass" for r in rows)


def test_figures_refuse_zero_coupling(tmp_path, capsys):
    # figure 1 spans [0, 5 t_b], and Lambda = 0 has no t_b
    cfg = write_cfg(tmp_path, SMALL_CFG + "Lambda = 0.0\n")
    assert cli.main(["figures", "--config", cfg, "--outdir", str(tmp_path / "fig")]) == 1
    assert capsys.readouterr().err.startswith("error: Lambda: ")


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


def test_master_eq_artifacts_do_not_depend_on_the_core_count(tmp_path, monkeypatch):
    # open, interior and close split their rows over threads, one block
    # per core; every output byte must be the same for any count
    from decwt import master_eq
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("sample_every = 10", "sample_every = 5"))
    monkeypatch.setattr(master_eq, "MIN_BLOCK_WORK", 1)
    outs = []
    for workers in (1, 3):
        monkeypatch.setattr(master_eq, "WORKERS", workers)
        out = tmp_path / f"w{workers}"
        assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                         "--checkpoint-every", "3", "--outdir", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.suffix in (".csv", ".ckpt")})
    assert len([n for n in outs[0] if n.endswith(".ckpt")]) == 16
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_checkpoint_resume_refuses_a_non_finite_field(tmp_path, capsys, bad_value):
    # hermiticity_defect is NaN then, which passes the Hermiticity bound; the
    # run would fail later and blame the first sample time after the resume
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("t_end = 0.05", "t_end = 0.02")
                    .replace("sample_every = 10", "sample_every = 5"))
    full = tmp_path / "full"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "5", "--outdir", str(full)]) == 0
    f = load_field_2d(full / "master-eq-step000010.ckpt")
    f.values[20, 40] = bad_value
    bad, res = tmp_path / "bad.ckpt", tmp_path / "res"
    save_field_2d(bad, f)
    assert cli.main(["checkpoint-resume", "--config", cfg,
                     "--checkpoint", str(bad), "--outdir", str(res)]) == 1
    assert "not finite" in capsys.readouterr().err
    assert not (res / "master-eq.csv").exists()
    assert ("status = failed: master-eq resume: checkpoint field is not "
            "finite") in (res / "MANIFEST.txt").read_text()


def test_checkpoint_resume_refuses_a_field_off_the_dt_grid(tmp_path, capsys):
    # resumed rows are stamped from the step index, which needs f.t on the grid
    cfg = write_cfg(tmp_path)
    full = tmp_path / "full"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "10", "--outdir", str(full)]) == 0
    f = load_field_2d(full / "master-eq-step000010.ckpt")
    f.t += 0.5 * load_scenario(cfg).numerics.dt
    bad, res = tmp_path / "bad.ckpt", tmp_path / "res"
    save_field_2d(bad, f)
    assert cli.main(["checkpoint-resume", "--config", cfg,
                     "--checkpoint", str(bad), "--outdir", str(res)]) == 1
    assert "not on the dt" in capsys.readouterr().err
    assert not (res / "master-eq.csv").exists()
    assert ("status = failed: master-eq resume: field time"
            in (res / "MANIFEST.txt").read_text())


@pytest.mark.parametrize("t, reason", [
    (-0.02, "is before t = 0"), (np.nan, "is not finite"), (np.inf, "is not finite"),
], ids=["negative", "nan", "inf"])
def test_checkpoint_resume_refuses_a_field_time_off_the_clock(tmp_path, capsys, t, reason):
    # rows are stamped k dt with k counted from t = 0: a time before it or
    # not finite has no step k, and the refusal names the field time
    cfg = write_cfg(tmp_path, SMALL_CFG.replace("sample_every = 10", "sample_every = 5"))
    full = tmp_path / "full"
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "10", "--outdir", str(full)]) == 0
    f = load_field_2d(full / "master-eq-step000020.ckpt")
    f.t = t
    bad, res = tmp_path / "bad.ckpt", tmp_path / "res"
    save_field_2d(bad, f)
    assert cli.main(["checkpoint-resume", "--config", cfg,
                     "--checkpoint", str(bad), "--outdir", str(res)]) == 1
    assert reason in capsys.readouterr().err
    assert not (res / "master-eq.csv").exists()
    assert (f"status = failed: master-eq resume: field time {t!r} {reason}"
            in (res / "MANIFEST.txt").read_text())


@pytest.mark.parametrize("other", [
    SMALL_CFG.replace("n_y = 64\nn_z = 64", "n_y = 32\nn_z = 32"),
    SMALL_CFG.replace("extent_z = 14.0", "extent_z = 15.0"),
], ids=["points", "extent"])
def test_checkpoint_resume_refuses_a_checkpoint_from_another_grid(tmp_path, capsys, other):
    # the rows would come from the checkpoint's grid under a MANIFEST that
    # names the config's
    full = tmp_path / "full"
    assert cli.main(["run", "--config", write_cfg(tmp_path), "--routes", "master-eq",
                     "--checkpoint-every", "10", "--outdir", str(full)]) == 0
    res = tmp_path / "res"
    assert cli.main(["checkpoint-resume", "--config", write_cfg(tmp_path, other, "other.cfg"),
                     "--checkpoint", str(full / "master-eq-step000010.ckpt"),
                     "--outdir", str(res)]) == 1
    assert "checkpoint grid" in capsys.readouterr().err
    assert not (res / "master-eq.csv").exists()
    assert ("status = failed: master-eq resume: checkpoint grid"
            in (res / "MANIFEST.txt").read_text())


@pytest.mark.parametrize("size", [10, 100])
def test_checkpoint_resume_of_a_truncated_file_writes_the_manifest(tmp_path, size):
    full = tmp_path / "full"
    cfg = write_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--routes", "master-eq",
                     "--checkpoint-every", "10", "--outdir", str(full)]) == 0
    bad, res = tmp_path / "bad.ckpt", tmp_path / "res"
    bad.write_bytes((full / "master-eq-step000010.ckpt").read_bytes()[:size])
    assert cli.main(["checkpoint-resume", "--config", cfg,
                     "--checkpoint", str(bad), "--outdir", str(res)]) == 1
    assert not (res / "master-eq.csv").exists()
    assert ("status = failed: master-eq resume: "
            in (res / "MANIFEST.txt").read_text())


def test_checkpoint_resume_missing_file(tmp_path):
    assert cli.main(["checkpoint-resume", "--checkpoint",
                     str(tmp_path / "nope.ckpt"),
                     "--outdir", str(tmp_path / "o")]) == 1
