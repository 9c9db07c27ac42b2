import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from racbem import cli, tasks
from racbem.chebpoly import ChebPoly, fit_on_interval, lorentzian_sqrt, odd_gibbs
from racbem.generator import default_depth


def run(args, monkeypatch, tmp_path):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    return cli.main(args)


def test_generate_deterministic_bytes(tmp_path, monkeypatch):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run(["generate", "--n", "2", "--seed", "3", "--out", str(a)], monkeypatch, tmp_path) == 0
    assert run(["generate", "--n", "2", "--seed", "3", "--out", str(b)], monkeypatch, tmp_path) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_checks_coupling_size(tmp_path, monkeypatch):
    # t5 has 5 qubits; an instance on 2 system qubits needs 3
    bad = tmp_path / "bad.txt"
    argv = ["generate", "--n", "2", "--seed", "1", "--coupling", "t5", "--out", str(bad)]
    assert run(argv, monkeypatch, tmp_path) == 4
    assert not bad.exists()
    assert run(["generate", "--n", "4", "--seed", "1", "--coupling", "t5"], monkeypatch, tmp_path) == 0
    assert "QUBITS 5" in (tmp_path / "racbem-n4-s1.txt").read_text()


def test_remez_then_phase_factors(tmp_path, monkeypatch):
    poly = tmp_path / "p.json"
    pf = tmp_path / "pf.json"
    code = run(
        ["remez", "--target", "inverse", "--kappa", "2", "--degree", "6",
         "--parity", "even", "--out", str(poly)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    body = json.loads(poly.read_text())
    assert body["config"]["target"] == "inverse"
    assert body["sup_error"] > 0
    assert run(["phase-factors", "--poly", str(poly), "--out", str(pf)], monkeypatch, tmp_path) == 0
    out = json.loads(pf.read_text())
    assert out["residual"] < 1e-20
    assert len(out["phi"]) == 7 == len(out["varphi"])


def test_remez_odd_target_at_odd_parity(tmp_path, monkeypatch):
    # odd-gibbs declares (-1, 1); the odd fit runs on its right half, and
    # the reported sup error holds on the whole domain
    out = tmp_path / "odd.json"
    argv = ["remez", "--target", "odd-gibbs", "--beta", "2", "--degree", "7",
            "--parity", "odd", "--out", str(out)]
    assert run(argv, monkeypatch, tmp_path) == 0
    body = json.loads(out.read_text())
    poly = ChebPoly.from_json(json.dumps(body["poly"]))
    assert poly.parity == "odd" and poly.degree == 7
    xs = np.linspace(-1.0, 1.0, 4001)
    miss = np.abs(poly.scale * poly(xs) - odd_gibbs(2.0)(xs)).max()
    assert miss == pytest.approx(body["sup_error"], rel=1e-4)


def test_exact_mode_deterministic_output(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["racbem-bench", "--n", "2", "--seed", "5", "--shots", "0", "--sigma", "0"]
    assert run(base + ["--out", str(a)], monkeypatch, tmp_path) == 0
    assert run(base + ["--out", str(b)], monkeypatch, tmp_path) == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    del da["reports"][0]["wall_time"], db["reports"][0]["wall_time"]
    assert da == db
    assert da["config"]["shots"] == 0 and da["config"]["sigma"] == 0.0


def test_config_file_with_flag_override(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 9, "depth": 4}))
    out = tmp_path / "c.txt"
    code = run(
        ["generate", "--config", str(cfg), "--seed", "4", "--out", str(out)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    text = out.read_text()
    assert "NAME racbem-4" in text  # flag wins over config seed
    assert text.count("LAYER") == 4  # depth from config


def test_config_file_overrides_flag_defaults(tmp_path, monkeypatch):
    # keys whose flag has a non-None default must still take effect
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"eta": 0.5, "points": 2, "lengths": 3}))
    out = tmp_path / "s.json"
    code = run(
        ["spectral", "--n", "1", "--seed", "1", "--exact", "--config", str(cfg),
         "--out", str(out)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert body["config"]["eta"] == 0.5
    assert body["config"]["points"] == 2
    assert body["config"]["lengths"] == [3, 3]  # one length serves both points
    assert body["E"] == [0.0, 1.0]
    bad = tmp_path / "bad.json"
    for key in ("func", "length"):
        bad.write_text(json.dumps({key: 1}))
        assert run(["spectral", "--config", str(bad), "--n", "1", "--seed", "1"],
                   monkeypatch, tmp_path) == 2


def test_top_level_config_flag(tmp_path, monkeypatch):
    # --config before the subcommand is not reset by the subcommand's own
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 11, "kappa": 2.0, "d": 6}))
    before, after = tmp_path / "before.json", tmp_path / "after.json"
    assert run(["--config", str(cfg), "linpack", "--exact", "--out", str(before)],
               monkeypatch, tmp_path) == 0
    assert run(["linpack", "--config", str(cfg), "--exact", "--out", str(after)],
               monkeypatch, tmp_path) == 0
    a, b = json.loads(before.read_text()), json.loads(after.read_text())
    assert a["config"]["kappa"] == 2.0 and a["config"]["d"] == 6
    assert a["report"]["p_exact"] == b["report"]["p_exact"]


def test_exit_codes(tmp_path, monkeypatch, capsys):
    # missing required option -> schema (2)
    assert run(["generate", "--n", "2"], monkeypatch, tmp_path) == 2
    # unreadable input file -> io (3)
    assert run(["phase-factors", "--poly", str(tmp_path / "nope.json")], monkeypatch, tmp_path) == 3
    # module-level contract violation -> 4
    assert run(
        ["linpack", "--n", "2", "--seed", "1", "--kappa", "2", "--d", "5", "--exact"],
        monkeypatch, tmp_path,
    ) == 4
    # phase length 12 is degree 11, which would run one phase short -> 4,
    # naming the degree, and no artifact
    out = tmp_path / "s.json"
    assert run(["spectral", "--n", "2", "--seed", "13", "--exact", "--points", "2",
                "--lengths", "12", "--out", str(out)], monkeypatch, tmp_path) == 4
    assert "got 11" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]
    assert not out.exists()
    # unknown config key -> schema (2)
    bad = tmp_path / "bad.json"
    bad.write_text('{"wat": 1}')
    assert run(["generate", "--config", str(bad), "--n", "2", "--seed", "1"], monkeypatch, tmp_path) == 2


def test_linpack_past_the_qubit_cap_exits_4(tmp_path, monkeypatch, capsys):
    # the exact reference keeps the unitary cap of 12 qubits, light cone or
    # not, and the register is checked before any phase solve
    def no_solve(f):
        raise AssertionError("phase solve before the cap check")

    monkeypatch.setattr(tasks, "optimize", no_solve)
    out = tmp_path / "l.json"
    assert run(["linpack", "--n", "12", "--seed", "0", "--kappa", "2", "--d", "2", "--exact",
                "--out", str(out)], monkeypatch, tmp_path) == 4
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec == {"error": "module", "message": "13 qubits exceeds unitary cap 12"}
    assert not out.exists()


def test_kappa_one_exits_4_naming_the_empty_interval(tmp_path, monkeypatch, capsys):
    # at kappa 1 the inverse is fitted on [1, 1]: exit 4 with the JSON error
    # line, not a traceback
    for argv in (["remez", "--target", "inverse", "--kappa", "1", "--degree", "4"],
                 ["linpack", "--n", "2", "--seed", "0", "--kappa", "1", "--d", "4", "--exact"]):
        assert run(argv, monkeypatch, tmp_path) == 4
        rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rec == {"error": "module", "message": "empty fit interval [1.0, 1.0]"}


def test_error_line_is_machine_parsable(tmp_path, monkeypatch, capsys):
    run(["generate", "--n", "2"], monkeypatch, tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    rec = json.loads(err[-1])
    assert rec["error"] == "schema"


def test_linpack_artifacts(tmp_path, monkeypatch):
    out = tmp_path / "lp.json"
    reports = tmp_path / "lp.jsonl"
    csv_path = tmp_path / "lp.csv"
    code = run(
        ["linpack", "--n", "2", "--seed", "11", "--kappa", "2", "--d", "6",
         "--exact", "--out", str(out), "--reports", str(reports), "--csv", str(csv_path)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    body = json.loads(out.read_text())
    rep = body["report"]
    assert rep["relative_error"] <= rep["params"]["relative_error_bound"]
    line = json.loads(reports.read_text().splitlines()[0])
    assert line["task"] == "linpack"
    assert csv_path.exists()


def test_metts_cma_matches_estimate(tmp_path, monkeypatch):
    out = tmp_path / "m.json"
    cma = tmp_path / "m.csv"
    code = run(
        ["metts", "--n", "2", "--seed", "15", "--beta", "1", "--steps", "20",
         "--exact", "--out", str(out), "--cma", str(cma)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    body = json.loads(out.read_text())
    last = cma.read_text().strip().splitlines()[-1].split(",")
    assert float(last[-1]) == pytest.approx(body["estimate"])


def test_default_out_dir_env(tmp_path, monkeypatch):
    assert run(["generate", "--n", "2", "--seed", "1"], monkeypatch, tmp_path) == 0
    assert (tmp_path / "racbem-n2-s1.txt").exists()


def test_sv_stats(tmp_path, monkeypatch):
    out = tmp_path / "sv.json"
    code = run(
        ["sv-stats", "--n", "2", "--seed", "5", "--samples", "10", "--out", str(out)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert body["samples"] == 10
    # a spread can round to exactly 0 (three of these ten are ~1e-16)
    assert 0 <= body["min"] <= body["max"] <= 1 + 1e-12
    assert 0 < body["mean"]


def test_sv_stats_echoes_coupling(tmp_path, monkeypatch):
    # the map changes the statistics, so the artifact must say which ran
    base = ["sv-stats", "--n", "4", "--seed", "1", "--samples", "3"]
    line, t5 = tmp_path / "line.json", tmp_path / "t5.json"
    assert run(base + ["--out", str(line)], monkeypatch, tmp_path) == 0
    assert run(base + ["--coupling", "t5", "--out", str(t5)], monkeypatch, tmp_path) == 0
    a, b = json.loads(line.read_text()), json.loads(t5.read_text())
    assert a["config"]["coupling"] is None and b["config"]["coupling"] == "t5"
    assert a["mean"] != b["mean"]


def test_csv_write_failure_leaves_no_file(tmp_path, monkeypatch):
    # the CSV goes through the same temp-file-and-rename as the JSON artifacts
    def fail(self, rows):
        raise OSError("disk full")

    monkeypatch.setattr(csv.DictWriter, "writerows", fail)
    out, target = tmp_path / "lp.json", tmp_path / "lp.csv"
    code = run(["linpack", "--n", "1", "--seed", "0", "--kappa", "2", "--d", "2", "--exact",
                "--out", str(out), "--csv", str(target)], monkeypatch, tmp_path)
    assert code == 3
    assert out.exists() and not target.exists()
    assert not list(tmp_path.glob(".tmp-racbem-*"))


def test_spectral_artifact(tmp_path, monkeypatch):
    out = tmp_path / "sp.json"
    code = run(
        ["spectral", "--n", "2", "--seed", "3", "--exact", "--points", "3",
         "--lengths", "5", "--out", str(out)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert body["E"] == [0.0, 0.5, 1.0]
    assert all(s >= 0 for s in body["s"])
    # one length serves every point, and the echo states what ran
    assert body["config"]["lengths"] == [5, 5, 5] and "length" not in body["config"]
    with pytest.raises(SystemExit) as exc:
        run(["spectral", "--n", "2", "--seed", "3", "--length", "5"], monkeypatch, tmp_path)
    assert exc.value.code == 2


def test_spectral_symmetric_point_at_even_degree(tmp_path, monkeypatch):
    # E = 0.5 is the middle of the fit interval [0, 1]; length 13 is degree 12,
    # a degree-6 fit of the Lorentzian carrier
    reports = tmp_path / "sp.jsonl"
    code = run(["spectral", "--n", "2", "--seed", "1", "--exact", "--lengths", "13",
                "--out", str(tmp_path / "sp.json"), "--reports", str(reports)],
               monkeypatch, tmp_path)
    assert code == 0
    point = next(r["params"] for r in map(json.loads, reports.read_text().splitlines())
                 if r["params"]["E"] == 0.5)
    t = lorentzian_sqrt(0.2, 0.5)
    g = fit_on_interval(t, 6, (0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 200_001)
    dev = np.abs(g.scale * g(xs) - t(xs)).max()
    assert dev * (1 - 1e-9) <= point["fit_error"] <= dev * (1 + 1e-6)


def test_timeseries_artifact(tmp_path, monkeypatch):
    out = tmp_path / "ts.json"
    code = run(
        ["timeseries", "--n", "2", "--seed", "3", "--exact", "--t-grid", "1",
         "--lengths-real", "3", "--lengths-imag", "3",
         "--etas-real", "1", "--etas-imag", "1", "--out", str(out)],
        monkeypatch, tmp_path,
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert len(body["s"]) == 1 == len(body["s_exact"])


def test_timeseries_echoes_grid_used(tmp_path, monkeypatch):
    # the echo states the t grid and per-point lists the run used: the
    # defaults when no flag sets them, else the flags' values
    from racbem import tasks

    out = tmp_path / "ts.json"
    assert run(["timeseries", "--n", "1", "--seed", "3", "--exact", "--out", str(out)],
               monkeypatch, tmp_path) == 0
    body = json.loads(out.read_text())
    assert body["config"]["t_grid"] == body["t"] == list(tasks.TS_GRID)
    for key, want in (("lengths_real", tasks.TS_LENGTHS_REAL), ("lengths_imag", tasks.TS_LENGTHS_IMAG),
                      ("etas_real", tasks.TS_ETAS_REAL), ("etas_imag", tasks.TS_ETAS_IMAG)):
        assert body["config"][key] == list(want)
    flags = ["--t-grid", "2", "--lengths-real", "5", "--lengths-imag", "3",
             "--etas-real", "1.5", "--etas-imag", "1"]
    assert run(["timeseries", "--n", "1", "--seed", "3", "--exact", "--out", str(out)] + flags,
               monkeypatch, tmp_path) == 0
    config = json.loads(out.read_text())["config"]
    assert [config[k] for k in ("t_grid", "lengths_real", "lengths_imag", "etas_real",
                                "etas_imag")] == [[2.0], [5], [3], [1.5], [1.0]]


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the runtime is numpy alone
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import racbem.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_config_list_joins_flag_default(tmp_path, monkeypatch):
    # a JSON list for one grid must combine with the other grid's default
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"etas_real": [1, 1, 1, 1.5, 2, 1.5, 1.5, 1.5, 1.5, 1.5]}))
    out = tmp_path / "ts.json"
    code = run(["timeseries", "--n", "1", "--seed", "1", "--exact", "--config", str(cfg),
                "--out", str(out)], monkeypatch, tmp_path)
    assert code == 0
    assert len(json.loads(out.read_text())["s"]) == 10


def test_noise_model_without_coverage_exits_4(tmp_path, monkeypatch, capsys):
    from racbem.noise import NoiseModel

    nm = tmp_path / "nm.json"
    nm.write_text(NoiseModel(gate_errors={("cnot", (7, 8)): {"ii": 0.9, "xx": 0.1}}).to_json())
    code = run(["linpack", "--n", "2", "--seed", "11", "--kappa", "2", "--d", "6",
                "--shots", "16", "--noise-model", str(nm)], monkeypatch, tmp_path)
    assert code == 4
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "module" and "no error entry" in rec["message"]


def test_shots_zero_is_noiseless(tmp_path, monkeypatch):
    from racbem.noise import synth_model
    from racbem.generator import linear_coupling_map
    import numpy as np

    nm = tmp_path / "nm.json"
    nm.write_text(synth_model(linear_coupling_map(4), 0.01, 0.05, 0.02,
                              np.random.default_rng(2)).to_json())
    base = ["linpack", "--n", "2", "--seed", "11", "--kappa", "2", "--d", "6", "--shots", "0"]
    plain, modelled = tmp_path / "plain.json", tmp_path / "modelled.json"
    assert run(base + ["--out", str(plain)], monkeypatch, tmp_path) == 0
    assert run(base + ["--noise-model", str(nm), "--out", str(modelled)], monkeypatch, tmp_path) == 0
    a, b = json.loads(plain.read_text()), json.loads(modelled.read_text())
    assert b["report"]["p_measured"] == a["report"]["p_measured"]
    assert b["config"]["sigma"] == 0.0 and b["report"]["params"]["sigma"] == 0.0
    assert "noise_coverage" not in b["report"]["params"]


def test_task_commands_use_coupling_map(tmp_path, monkeypatch):
    base = ["linpack", "--n", "2", "--seed", "11", "--kappa", "2", "--d", "6", "--exact"]
    # t5 has 5 qubits; U_A on 2 system qubits needs 3
    assert run(base + ["--coupling", "t5"], monkeypatch, tmp_path) == 4
    one_edge = tmp_path / "edge.json"
    one_edge.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 2]]}))
    chain, mapped = tmp_path / "chain.json", tmp_path / "mapped.json"
    assert run(base + ["--out", str(chain)], monkeypatch, tmp_path) == 0
    assert run(base + ["--coupling", str(one_edge), "--out", str(mapped)], monkeypatch, tmp_path) == 0
    a, b = json.loads(chain.read_text()), json.loads(mapped.read_text())
    assert a["config"]["coupling"] is None and b["config"]["coupling"] == str(one_edge)
    assert a["report"]["p_exact"] != b["report"]["p_exact"]


def test_config_values_parse_with_flag_type(tmp_path, monkeypatch, capsys):
    base = ["linpack", "--seed", "11", "--kappa", "2", "--d", "6", "--exact"]
    outs = []
    for k, n in enumerate((2, "2")):
        cfg, out = tmp_path / f"c{k}.json", tmp_path / f"o{k}.json"
        cfg.write_text(json.dumps({"n": n}))
        assert run(base + ["--config", str(cfg), "--out", str(out)], monkeypatch, tmp_path) == 0
        outs.append(json.loads(out.read_text()))
    assert outs[1]["config"]["n"] == 2
    assert outs[0]["report"]["p_exact"] == outs[1]["report"]["p_exact"]
    bad = tmp_path / "bad.json"
    for body, cmd in (({"n": "two"}, base), ({"exact": "yes"}, base), ({"depth": "two"}, base),
                      ({"lengths_real": [3, 3.5]}, ["timeseries", "--n", "1", "--seed", "1"]),
                      ({"parity": "neither"}, ["remez", "--target", "inverse", "--kappa", "2",
                                               "--degree", "6"])):
        bad.write_text(json.dumps(body))
        assert run(cmd + ["--config", str(bad)], monkeypatch, tmp_path) == 2
        rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rec["error"] == "schema" and repr(next(iter(body))) in rec["message"]
    # the command line parses --depth as the config file does: 'auto' or an int
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--n", "2", "--seed", "1", "--depth", "two"], monkeypatch, tmp_path)
    assert exc.value.code == 2 and "--depth" in capsys.readouterr().err


def test_explicit_flag_wins_over_config(tmp_path, monkeypatch):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 11, "kappa": 5.0, "d": 6}))
    out = tmp_path / "o.json"
    assert run(["linpack", "--config", str(cfg), "--exact", "--kappa=2", "--out", str(out)],
               monkeypatch, tmp_path) == 0
    assert json.loads(out.read_text())["config"]["kappa"] == 2.0
    # an abbreviation would be matched by argparse but not seen as explicit
    with pytest.raises(SystemExit) as exc:
        run(["linpack", "--config", str(cfg), "--exact", "--kap", "2"], monkeypatch, tmp_path)
    assert exc.value.code == 2


def test_p_cnot_echo_default_config_and_flag(tmp_path, monkeypatch):
    # the echo states the p_cnot the run used: the default, the config
    # file's value over the default, or an explicit flag over the file
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p_cnot": 0.3}))
    base = ["linpack", "--n", "2", "--seed", "11", "--kappa", "2", "--d", "6", "--exact"]
    for extra, want in (([], 0.5), (["--config", str(cfg)], 0.3),
                        (["--config", str(cfg), "--p-cnot", "0.2"], 0.2)):
        out = tmp_path / "o.json"
        assert run(base + extra + ["--out", str(out)], monkeypatch, tmp_path) == 0
        body = json.loads(out.read_text())
        assert body["config"]["p_cnot"] == want == body["report"]["params"]["p_cnot"]


def test_metts_echoes_degrees_used(tmp_path, monkeypatch):
    # left to the beta rule, the degrees echo as the run used them
    out, reports = tmp_path / "m.json", tmp_path / "m.jsonl"
    base = ["metts", "--n", "2", "--seed", "15", "--beta", "1", "--steps", "5", "--exact",
            "--out", str(out), "--reports", str(reports)]
    for extra, want in (([], (3, 2)), (["--d-num", "5", "--d-den", "4"], (5, 4))):
        assert run(base + extra, monkeypatch, tmp_path) == 0
        config = json.loads(out.read_text())["config"]
        params = json.loads(reports.read_text())["params"]
        assert (config["d_num"], config["d_den"]) == want == (params["d_num"], params["d_den"])


def test_jobs_is_not_an_option(tmp_path, monkeypatch, capsys):
    # instances run one after another in the calling process
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    base = ["racbem-bench", "--n", "1", "--seed", "0", "--instances", "2", "--exact"]
    assert run(base + ["--config", str(cfg)], monkeypatch, tmp_path) == 2
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "schema" and "'jobs'" in rec["message"]
    with pytest.raises(SystemExit) as exc:
        run(base + ["--jobs", "2"], monkeypatch, tmp_path)
    assert exc.value.code == 2


def test_calls_share_the_parser_but_not_their_options(tmp_path, monkeypatch):
    # one parser serves every call; what one call set, by --config or by
    # flag, is back at its default in the next
    assert cli._parser() is cli._parser()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p_cnot": 0.3, "sigma": 0.5}))
    base = ["linpack", "--n", "2", "--seed", "11", "--kappa", "2", "--d", "6"]
    first, second, csv = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "r.csv"
    assert run(base + ["--config", str(cfg), "--exact", "--depth", "4", "--csv", str(csv),
                       "--out", str(first)], monkeypatch, tmp_path) == 0
    csv.unlink()
    assert run(base + ["--shots", "100", "--out", str(second)], monkeypatch, tmp_path) == 0
    a, b = (json.loads(p.read_text())["config"] for p in (first, second))
    assert (a["p_cnot"], a["shots"], a["depth"]) == (0.3, 0, 4)
    assert (b["p_cnot"], b["shots"], b["sigma"], b["depth"]) == (0.5, 100, 0.0, 7)
    assert not csv.exists()


def test_sigma_echo_is_the_sigma_applied(tmp_path, monkeypatch):
    # with no noise model no noise is applied, so the echo and the report
    # both give sigma 0, whatever --sigma says
    out = tmp_path / "lp.json"
    assert run(["linpack", "--n", "2", "--seed", "11", "--kappa", "2", "--d", "6",
                "--shots", "100", "--sigma", "0.5", "--out", str(out)], monkeypatch, tmp_path) == 0
    body = json.loads(out.read_text())
    assert body["config"]["sigma"] == body["report"]["params"]["sigma"] == 0.0


# one call per command that writes a JSON artifact; `generate` writes a circuit file
ECHO_CALLS = {
    "sv-stats": ["--n", "2", "--seed", "1", "--samples", "2"],
    "remez": ["--target", "inverse", "--kappa", "2", "--degree", "6", "--parity", "even"],
    "phase-factors": ["--poly", "poly.json"],
    "racbem-bench": ["--n", "1", "--seed", "0", "--exact"],
    "linpack": ["--n", "1", "--seed", "0", "--kappa", "2", "--d", "2", "--exact"],
    "timeseries": ["--n", "1", "--seed", "0", "--exact", "--t-grid", "1", "--lengths-real", "3",
                   "--lengths-imag", "3", "--etas-real", "1", "--etas-imag", "1"],
    "spectral": ["--n", "1", "--seed", "0", "--exact", "--points", "2", "--lengths", "3"],
    "metts": ["--n", "1", "--seed", "0", "--beta", "1", "--steps", "2", "--exact"],
}


def test_echo_is_the_flag_table(tmp_path, monkeypatch):
    # the config echo holds the command and every input flag of its row of
    # the flag table, in order: all but --exact and the output paths
    assert set(ECHO_CALLS) == set(cli.COMMANDS) - {"generate"}
    monkeypatch.chdir(tmp_path)
    assert run(["remez", *ECHO_CALLS["remez"], "--out", "poly.json"], monkeypatch, tmp_path) == 0
    for command, argv in ECHO_CALLS.items():
        out = tmp_path / f"{command}.json"
        assert run([command, *argv, "--out", str(out)], monkeypatch, tmp_path) == 0
        config = json.loads(out.read_text())["config"]
        flags = [flag[2:].replace("-", "_") for flag, _ in cli.COMMANDS[command][2]
                 if flag not in ("--exact", "--out", "--reports", "--csv", "--cma")]
        assert list(config) == ["command", *flags], command
        if "depth" in config:  # the depth rule's choice, not the unset flag
            assert config["depth"] == default_depth(config["n"])


def test_phase_factors_needs_the_degrees_parity(tmp_path, monkeypatch, capsys):
    # a parity-none fit has phases for another polynomial only: exit 4, no artifact
    poly, pf = tmp_path / "p.json", tmp_path / "pf.json"
    for fit in (["gibbs", "--beta", "1", "--degree", "4"],
                ["cos-sqrt", "--t", "3", "--eta", "1.5", "--degree", "9"]):
        assert run(["remez", "--target", *fit, "--out", str(poly)], monkeypatch, tmp_path) == 0
        argv = ["phase-factors", "--poly", str(poly), "--out", str(pf)]
        assert run(argv, monkeypatch, tmp_path) == 4
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec["error"] == "module" and "target parity" in rec["message"]
        assert not pf.exists()


@pytest.mark.parametrize("argv", [
    ["remez", "--target", "gibbs", "--beta", "1", "--degree", "-2", "--parity", "even"],
    ["metts", "--n", "2", "--seed", "15", "--beta", "1", "--steps", "5", "--exact",
     "--d-num", "-1"],
])
def test_negative_degree_prints_one_error_line(tmp_path, argv):
    # numpy never sees the degree, so no warning precedes the JSON line
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-m", "racbem.cli", *argv], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 4
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "module"


def test_racbem_bench_needs_an_instance(tmp_path, monkeypatch, capsys):
    def no_instance(*args, **kwargs):
        raise AssertionError("instance before the count check")

    monkeypatch.setattr(tasks, "generate_instance", no_instance)
    for count in ("0", "-2"):
        argv = ["racbem-bench", "--n", "1", "--seed", "0", "--exact", "--instances", count]
        assert run(argv, monkeypatch, tmp_path) == 4
        rec = json.loads(capsys.readouterr().err.strip())
        assert rec == {"error": "module", "message": "instances must be >= 1"}
    assert list(tmp_path.iterdir()) == []


def test_remez_odd_fit_of_a_target_nonzero_at_0(tmp_path, monkeypatch, capsys):
    # an odd polynomial is 0 at 0, so an odd fit from 0 of a target that is
    # not is a wrong request, said as such, not a solver stall
    out = tmp_path / "odd.json"
    argv = ["remez", "--target", "cos-sqrt", "--t", "3", "--eta", "1.5", "--degree", "9",
            "--parity", "odd", "--out", str(out)]
    assert run(argv, monkeypatch, tmp_path) == 4
    rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert rec["error"] == "module" and "vanishes at 0" in rec["message"]
    assert not out.exists()
    for target in (["odd-gibbs", "--beta", "2"], ["inverse", "--kappa", "2"]):
        assert run(["remez", "--target", *target, "--degree", "9", "--parity", "odd",
                    "--out", str(out)], monkeypatch, tmp_path) == 0



# each input file: the flags before its path, and JSON without a key its reader needs
INPUT_FILES = {
    "noise-model": (["linpack", "--n", "2", "--seed", "0", "--kappa", "2", "--d", "4",
                     "--noise-model"], '{"schema": 1, "gate_errors": []}'),
    "poly": (["phase-factors", "--poly"], '{"parity": "even"}'),
    "coupling": (["generate", "--n", "2", "--seed", "0", "--coupling"], '{"n_qubits": 3}'),
}


@pytest.mark.parametrize("kind", INPUT_FILES)
def test_malformed_input_file_is_a_schema_error(tmp_path, monkeypatch, capsys, kind):
    # JSON without a key, or of the wrong shape, exits 2 with one error line
    # naming the file, not a traceback; a file that is not JSON still exits 4
    flags, missing_key = INPUT_FILES[kind]
    path = tmp_path / "in.json"
    for body, code, error in ((missing_key, 2, "schema"), ("[1, 2]", 2, "schema"),
                              ("not json", 4, "module")):
        path.write_text(body)
        assert run([*flags, str(path)], monkeypatch, tmp_path) == code
        rec = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rec["error"] == error
        assert rec["message"].startswith(f"{path}: ") == (code == 2)
