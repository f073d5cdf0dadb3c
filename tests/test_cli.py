import json
import math

import pytest

from ensemble_hdg import local, solver
from ensemble_hdg.cli import _parse_levels, main
from ensemble_hdg.discretization import Discretization
from ensemble_hdg.io import load_config, problem_from_config, \
    read_convergence_csv
from ensemble_hdg.mesh import build_uniform_square_mesh, write_mesh_text
from ensemble_hdg.problems import get_example
from ensemble_hdg.study import resolve_dt_rule


def test_converge_writes_csv(tmp_path, capsys):
    rc = main(["converge", "--example", "1", "--degree", "0",
               "--levels", "1..2", "--dt-rule", "h", "--out",
               str(tmp_path)])
    assert rc == 0
    path = tmp_path / "convergence_example1_k0.csv"
    rows = read_convergence_csv(path)
    assert len(rows) == 6
    assert {r["member"] for r in rows} == {1, 2, 3}
    out = capsys.readouterr().out
    assert "Eu" in out and str(path) in out


def test_converge_rejects_example3(tmp_path, capsys):
    rc = main(["converge", "--example", "3", "--out", str(tmp_path)])
    assert rc == 2


def test_run_with_snapshot(tmp_path, capsys):
    rc = main(["run", "--example", "1", "--degree", "1", "--levels", "1",
               "--dt-rule", "fixed=0.25", "--out", str(tmp_path),
               "--snapshot", "final"])
    assert rc == 0
    assert (tmp_path / "snapshot_example1_final.csv").exists()
    assert (tmp_path / "snapshot_example1_final.vtk").exists()
    out = capsys.readouterr().out
    assert "member 1" in out
    assert "1 factorization" in out


def test_run_from_mesh_file(tmp_path, capsys):
    mesh_path = tmp_path / "square.mesh"
    write_mesh_text(build_uniform_square_mesh(2), mesh_path)
    rc = main(["run", "--example", "3", "--dt-rule", "fixed=0.05",
               "--T", "0.1", "--mesh-file", str(mesh_path), "--out",
               str(tmp_path)])
    assert rc == 0
    assert "8 elements" in capsys.readouterr().out


def test_bench_reports_ratio(tmp_path, capsys):
    for rule in ("fixed=0.25", "h3"):
        out = tmp_path / rule
        rc = main(["bench", "--example", "1", "--degree", "0", "--levels",
                   "2", "--dt-rule", rule, "--out", str(out)])
        assert rc == 0
        with open(out / "bench_example1.json") as fh:
            report = json.load(fh)
        assert report["dt"] == resolve_dt_rule(rule, math.sqrt(2) / 4, 1.0)
        assert report["factorizations_ensemble"] == 1
        assert report["factorizations_separate"] == 3
        assert "ratio" in capsys.readouterr().out


def test_check_admissibility_pass_and_fail(tmp_path, capsys):
    rc = main(["check", "--example", "1", "--levels", "2"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out

    cfg = tmp_path / "bad.ini"
    cfg.write_text("""
[custom]
J = 3
c = 1, 3, 20
beta_x = 0, 0, 0
beta_y = 0, 0, 0
f = 1, 1, 1
""")
    rc = main(["check", "--config", str(cfg), "--levels", "1",
               "--dt-rule", "fixed=0.05", "--T", "0.1",
               "--strict-admissibility"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_reads_c_at_the_data_points_of_its_degree(tmp_path, capsys):
    """c = (1, 3, 20) fails at every point, and its points are counted
    once: the 8 elements of level 1 hold 16 order-6 data points each at
    the default degree 1, and 25 order-8 points each at degree 2."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[custom]\nc = 1, 3, 20\nbeta_x = 0, 0, 0\n"
                   "beta_y = 0, 0, 0\nf = 1, 1, 1\n")
    for extra, points in (([], 8 * 16), (["--degree", "2"], 8 * 25)):
        rc = main(["check", "--config", str(cfg), "--levels", "1",
                   "--dt-rule", "fixed=0.05", "--T", "0.1"] + extra)
        assert rc == 0
        assert f"FAIL ({points} points)" in capsys.readouterr().out


def test_check_builds_no_solver(tmp_path, capsys, monkeypatch):
    """`check` reads c through a c stack of its Discretization alone: with
    tau, the scheme blocks and the solver constructor all failing, it
    prints, for examples 1-3 and a custom ensemble, the report of the
    check on a solver's own c stack."""
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[custom]\nc = 1, 3, 20\nbeta_x = 0, 0, 0\n"
                   "beta_y = 0, 0, 0\nf = 1, 1, 1\n")
    cases = [(["--example", str(k)], get_example(k)) for k in (1, 2, 3)]
    cases.append((["--config", str(cfg)],
                  problem_from_config(load_config(cfg))))
    mesh = build_uniform_square_mesh(4)
    dt = resolve_dt_rule("fixed=0.05", mesh.h_max, 0.1)
    times = [i * dt for i in range(round(0.1 / dt) + 1)]
    want = []
    for _, problem in cases:
        held = solver.EnsembleSolver(Discretization(mesh, 1), problem, dt)
        report = solver.check_admissibility(held.disc, held._c, times)
        want.append([repr(report)] + [
            f"  member {j + 1} at t_{n}, point ({x:.4f}, {y:.4f})"
            for j, n, x, y in report.violations[:10]])
    assert any(len(lines) > 1 for lines in want)

    def fail(*args, **kwargs):
        raise AssertionError("check built a part of a solver")

    monkeypatch.setattr(solver, "choose_tau", fail)
    monkeypatch.setattr(local, "BlockTables", fail)
    monkeypatch.setattr(solver.EnsembleSolver, "__init__", fail)
    for (args, _), lines in zip(cases, want):
        assert main(["check", *args, "--levels", "2", "--dt-rule",
                     "fixed=0.05", "--T", "0.1"]) == 0
        assert capsys.readouterr().out.splitlines() == lines


def test_config_file_drives_converge(tmp_path):
    cfg = tmp_path / "study.ini"
    cfg.write_text("""
[run]
example = 1
degree = 0
levels = 1..2
dt_rule = h
""")
    rc = main(["converge", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "convergence_example1_k0.csv").exists()


def test_levels_reject_empty_descending_and_negative(tmp_path):
    for command in ("run", "converge"):
        with pytest.raises(ValueError, match=r"'3\.\.1'"):
            main([command, "--example", "1", "--levels", "3..1", "--out",
                  str(tmp_path)])
    assert not any(tmp_path.iterdir())
    for text in ("-1..2", "-1", "3,1", "2,2,3"):
        with pytest.raises(ValueError, match=f"levels '{text}'"):
            _parse_levels(text)
    assert _parse_levels("2..4") == [2, 3, 4]
    assert _parse_levels("1,3") == [1, 3]


@pytest.mark.parametrize("text", ["every=0", "bogus"])
def test_snapshot_rejects_bad_values_before_running(tmp_path, capsys, text):
    with pytest.raises(ValueError, match=f"snapshot '{text}'"):
        main(["run", "--example", "1", "--levels", "1", "--dt-rule",
              "fixed=0.25", "--snapshot", text, "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().out == ""


def test_snapshot_ustar_is_the_observers(tmp_path, monkeypatch):
    """The snapshot's u* and the error observer's come from one map
    builder, bitwise, for the same state."""
    import numpy as np

    from ensemble_hdg import cli
    from ensemble_hdg.errors import ErrorAccumulator
    from ensemble_hdg.problems import example1

    written = []
    monkeypatch.setattr(cli, "write_snapshot_csv",
                        lambda disc, state, path, star: written.append(
                            (disc, state, star)))
    rc = main(["run", "--example", "1", "--levels", "1", "--dt-rule",
               "fixed=0.25", "--snapshot", "every=2", "--out",
               str(tmp_path)])
    assert rc == 0 and len(written) == 3
    for disc, state, star in written:
        acc = ErrorAccumulator(disc, example1(), 0.25, final_step=4)
        want = acc.post.apply(state.u, state.q, acc.ustar_map(state.t))
        assert np.array_equal(star, want)


def test_run_snapshot_every_step_stride(tmp_path):
    rc = main(["run", "--example", "1", "--levels", "1", "--dt-rule",
               "fixed=0.25", "--snapshot", "every=2", "--out", str(tmp_path)])
    assert rc == 0
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == [f"snapshot_example1_{tag}.csv"
                       for tag in ("final", "n000002", "n000004")]


@pytest.mark.parametrize("command", ["run", "check", "bench", "converge"])
@pytest.mark.parametrize("T", ["0", "-0.5", "inf"])
def test_nonpositive_final_time_is_rejected(tmp_path, capsys, command, T):
    """--T 0 is a final time, not a missing one: it must not fall back to
    the problem's default; --T inf overflowed the step count."""
    with pytest.raises(ValueError, match=f"T = {float(T)!r}"):
        main([command, "--example", "1", "--levels", "1", "--dt-rule",
              "fixed=0.25", "--T", T, "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, flag, value", [
    ("converge", "--mesh-file", "/nonexistent.txt"),
    ("converge", "--snapshot", "bogus"),
    ("bench", "--mesh-file", "/nonexistent.txt"),
    ("bench", "--snapshot", "final"),
    ("check", "--snapshot", "final"),
    ("bench", "--strict-admissibility", None),
])
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys,
                                                   command, flag, value):
    given = [flag] if value is None else [flag, value]
    with pytest.raises(SystemExit) as exc:
        main([command, "--example", "1", "--levels", "1", *given,
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("option, text, name", [
    ("--levels", "a..3", "levels"),
    ("--levels", "1,x", "levels"),
    ("--dt-rule", "fixed=abc", "dt rule"),
    ("--dt-rule", "fixed=nan", "dt rule"),
    ("--dt-rule", "fixed=inf", "dt rule"),
])
def test_unparsable_numbers_name_their_option(tmp_path, option, text, name):
    args = {"--levels": "1", "--dt-rule": "fixed=0.25", option: text}
    with pytest.raises(ValueError, match=f"{name} '{text}'"):
        main(["run", "--example", "1", "--out", str(tmp_path)] +
             [part for pair in args.items() for part in pair])
    assert not any(tmp_path.iterdir())


def test_config_out_is_honoured(tmp_path, monkeypatch):
    """[run] out was overwritten by the --out default "."."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "study.ini"
    cfg.write_text("[run]\nexample = 1\ndegree = 0\nlevels = 1\n"
                   "out = results_dir\n")
    assert main(["converge", "--config", str(cfg)]) == 0
    assert (tmp_path / "results_dir" / "convergence_example1_k0.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results_dir",
                                                          "study.ini"]


@pytest.mark.parametrize("command", ["converge", "run", "check"])
def test_config_names_the_section_and_key_of_a_bad_boolean(tmp_path, capsys,
                                                           command):
    """configparser alone said "Not a boolean: maybe"."""
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nexample = 1\nlevels = 1\n"
                   "strict_admissibility = maybe\n")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=r"config section \[run\], key "
                       r"'strict_admissibility': Not a boolean: maybe"):
        main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, key, value", [
    ("converge", "snapshot", "bogus"),
    ("converge", "mesh_file", "/nonexistent.txt"),
    ("bench", "snapshot", "final"),
    ("bench", "mesh_file", "/nonexistent.txt"),
    ("bench", "strict_admissibility", "true"),
    ("check", "snapshot", "final"),
])
def test_config_rejects_run_keys_the_subcommand_does_not_read(
        tmp_path, capsys, command, key, value):
    """A [run] key follows the rule of its flag: a subcommand that does not
    register the flag rejects the key instead of dropping it."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nlevels = 1\ndt_rule = fixed=0.25\n"
                   f"{key} = {value}\n")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=rf"\[run\], key '{key}'.*{command}"):
        main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    assert capsys.readouterr().out == ""
