import json
import math

from ensemble_hdg.cli import main
from ensemble_hdg.io import read_convergence_csv
from ensemble_hdg.mesh import build_uniform_square_mesh, write_mesh_text
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
