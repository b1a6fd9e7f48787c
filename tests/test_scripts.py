import csv
import importlib.util
import io
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import mp_j_constant

from sunflower.bounds import THRESHOLD_K_CEILING

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
        assert len(rows) == 21
        for row in rows.values():
            assert row["optimal"] == "True"
            assert Fraction(row["bound"]) >= int(row["maximum"])
            assert Fraction(row["slack"]) == Fraction(row["bound"]) - int(row["maximum"])

    def test_moduli_of_two_take_the_slice_bound(self, rows):
        # Z2x6: two slices of Z6, each capped at 3; Z2^3: the point count
        assert (rows["Z2x6"]["maximum"], rows["Z2x6"]["bound"]) == ("4", "6")
        assert (rows["Z2x2x2"]["maximum"], rows["Z2x2x2"]["bound"]) == ("8", "8")

    def test_moduli_of_two_are_proved_through_the_rest(self, rows):
        # twice Z3^3's 9, and four times Z3^2's 4
        assert (rows["Z2x3x3x3"]["maximum"], rows["Z2x3x3x3"]["optimal"]) == ("18", "True")
        assert (rows["Z2x2x3x3"]["maximum"], rows["Z2x2x3x3"]["optimal"]) == ("16", "True")


def test_bounds_grid_rows(capsys):
    rows = run(capsys, "bounds_grid", ["--k", "2..3", "--m", "4..8"])
    cells = [(int(r["k"]), int(r["M"])) for r in rows]
    assert cells == [(k, m) for k in (2, 3) for m in range(4, 9)]
    assert {r["tighter"] for r in rows} <= {"main", "threshold"}


@pytest.mark.parametrize(
    "name,argv,message",
    [
        ("bounds_grid", ["--k", "6..2"], "empty range '6..2'"),
        ("bounds_grid", ["--m", "4..x"], "bad range '4..x'"),
        ("bounds_grid", ["--k", "0..2"], "--k must be at least 1"),
        ("bounds_grid", ["--k", "1424", "--m", "1424"], f"--k above {THRESHOLD_K_CEILING}"),
        ("j_curve", ["--tol", "1e-6"], "unrecognized arguments: --tol"),
        ("j_curve", ["--q-min", "9007199254740990", "--q-max", "9007199254740995"],
         "q above 2^53"),
        ("maxima_census", ["--budget-nodes", "-1"], "--budget-nodes cannot be negative"),
        *[(name, ["--out", "/nonexistent/x.csv"], "cannot open --out")
          for name in ("bounds_grid", "j_curve", "maxima_census")],
    ],
)
def test_bad_input_is_a_usage_error_before_any_row(capsys, name, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        load(name).main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2 and captured.out == ""
    assert message in captured.err


def test_j_curve_rows(capsys):
    rows = run(capsys, "j_curve", ["--q-min", "3", "--q-max", "5"])
    assert [r["q"] for r in rows] == ["3", "4", "5"]
    js = [float(r["j"]) for r in rows]
    assert all(0 < j < 1 for j in js) and js == sorted(js, reverse=True)
    for row, j in zip(rows, js):
        _, ref = mp_j_constant(int(row["q"]))
        assert abs(j - float(ref)) <= float(row["radius"]) <= 1e-11
