"""tools/artifact_diff.py on two tiny artifact directories."""
import importlib.util
from pathlib import Path

import numpy as np

from decwt.fields import ComplexField2D, save_field_2d
from decwt.scenario import GridSpec2D

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_artifact_diff_reports_each_kind_of_file(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    grid = GridSpec2D(8, 8, 1.0, 1.0)
    values = np.arange(64, dtype=np.complex128).reshape(8, 8)
    for d, csv_rows, zero, text in ((a, "1.0,x,\n2.0,y,\n", 0.0, "same"),
                                    (b, "1.0,x,\n2.5,y,\n", -0.0, "other")):
        (d / "run").mkdir(parents=True)
        (d / "run" / "m.csv").write_text("t,flag,empty\n" + csv_rows)
        v = values.copy()
        v[0, 0] = complex(1.0, zero)  # a signed zero in one imaginary part
        save_field_2d(d / "run" / "f.ckpt", ComplexField2D(v, grid, 0.5))
        (d / "same.txt").write_text("kept\n")
        (d / "note.stdout").write_text(text)
    (b / "extra.exit").write_text("0\n")
    tool = load_tool()
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"extra.exit: only in {b}",
        "note.stdout: differs",
        "run/f.ckpt: header equal True; values array_equal True; "
        "1 doubles differ, 1 of them signed zeros",
        "run/m.csv: rows 2/2; worst relative deviation: t 0.2",
    ]
    assert tool.main([str(a), str(a)]) == 0
    assert capsys.readouterr().out == ""
