import csv
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import mp_j_constant

SCRIPTS = Path(__file__).parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(capsys, name, argv):
    assert load(name).main(argv) == 0
    return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))


class TestMaximaCensus:
    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("census") / "census.csv"
        assert load("maxima_census").main(["--out", str(out)]) == 0
        with open(out, newline="") as f:
            return {row["instance"]: row for row in csv.DictReader(f)}

    def test_every_bound_caps_its_maximum(self, rows):
        assert len(rows) == 19
        for row in rows.values():
            assert row["optimal"] == "True"
            assert Fraction(row["bound"]) >= int(row["maximum"])
            assert Fraction(row["slack"]) == Fraction(row["bound"]) - int(row["maximum"])

    def test_moduli_of_two_take_the_slice_bound(self, rows):
        # Z2x6: two slices of Z6, each capped at 3; Z2^3: the point count
        assert (rows["Z2x6"]["maximum"], rows["Z2x6"]["bound"]) == ("4", "6")
        assert (rows["Z2x2x2"]["maximum"], rows["Z2x2x2"]["bound"]) == ("8", "8")


def test_bounds_grid_rows(capsys):
    rows = run(capsys, "bounds_grid", ["--k", "2..3", "--m", "4..8"])
    cells = [(int(r["k"]), int(r["M"])) for r in rows]
    assert cells == [(k, m) for k in (2, 3) for m in range(4, 9)]
    assert {r["tighter"] for r in rows} <= {"main", "threshold"}


@pytest.mark.parametrize(
    "argv,message", [(["--k", "6..2"], "empty range '6..2'"), (["--m", "4..x"], "bad range '4..x'")]
)
def test_bounds_grid_rejects_a_reversed_or_bad_range(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        load("bounds_grid").main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert message in captured.err


def test_j_curve_has_no_tol_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        load("j_curve").main(["--tol", "1e-6"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


def test_j_curve_rows(capsys):
    rows = run(capsys, "j_curve", ["--q-min", "3", "--q-max", "5"])
    assert [r["q"] for r in rows] == ["3", "4", "5"]
    js = [float(r["j"]) for r in rows]
    assert all(0 < j < 1 for j in js) and js == sorted(js, reverse=True)
    for row, j in zip(rows, js):
        _, ref = mp_j_constant(int(row["q"]))
        assert abs(j - float(ref)) <= float(row["radius"]) <= 1e-11
