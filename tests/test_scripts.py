"""Each script in scripts/ runs end to end at tiny sizes."""

import csv
import importlib.util
import pathlib

import pytest

from racbem.phasefactors import CONVERGED_L

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

CASES = {
    # 100:120 is a deep cell: a degree-120 fit, bound and phase solve
    "kappa_sweep": ["--n", "2", "--instances", "1", "--pairs", "2:4,100:120", "--csv", "kappa.csv"],
    "metts_trace": ["--steps", "10", "--shots", "16"],
    "noise_sweep": ["--n", "2", "--instances", "1", "--shots", "64", "--sigmas", "0,1"],
    "spectral_depth": ["--n", "2", "--shots", "64"],
    "spread_stats": ["--sizes", "2", "--samples", "5"],
}


def test_every_script_has_a_case():
    assert sorted(CASES) == sorted(p.stem for p in SCRIPTS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)  # metts_trace writes its CSV to the working directory
    assert module.main(CASES[name]) in (None, 0)
    assert capsys.readouterr().out
    if name == "kappa_sweep":
        with open(tmp_path / "kappa.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["kappa"], row["d"]) for row in rows] == [("2.0", "4"), ("100.0", "120")]
        for row in rows:
            assert float(row["seconds"]) > 0
            assert float(row["worst_residual"]) <= CONVERGED_L
            assert float(row["worst_error_over_bound"]) <= 1
