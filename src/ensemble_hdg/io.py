"""File outputs (convergence CSV, field snapshots, VTK) and config files.

CSV output is deterministic: fixed column order, repr-style float
formatting and no timestamps, so identical configurations produce
byte-identical files.
"""

import configparser
import csv
import math

import numpy as np

from .problems import constant_ensemble, get_example
from .study import ConvergenceTable


def write_convergence_csv(table, path):
    """Write a ConvergenceTable in the documented CSV layout.

    Columns: level,h_over_sqrt2,member,Eq,Eq_rate,Eu,Eu_rate,Eustar,
    Eustar_rate with empty rate cells on the first level.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ConvergenceTable.COLUMNS)
        for row in table.rows:
            out = []
            for col in ConvergenceTable.COLUMNS:
                v = row[col]
                if v is None:
                    out.append("")
                elif col in ("level", "member"):
                    out.append(str(int(v)))
                else:
                    out.append(repr(float(v)))
            writer.writerow(out)


def read_convergence_csv(path):
    """Parse the convergence CSV back into a list of row dicts."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or \
                tuple(reader.fieldnames) != ConvergenceTable.COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        for rec in reader:
            row = {}
            for col in ConvergenceTable.COLUMNS:
                raw = rec[col]
                if raw == "":
                    row[col] = None
                elif col in ("level", "member"):
                    row[col] = int(raw)
                else:
                    row[col] = float(raw)
            rows.append(row)
    return rows


_SNAP_REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [1 / 3, 1 / 3]])


def snapshot_values(disc, state, ustar):
    """Sample u and u* at each element's vertices + centroid.

    state is an `EnsembleState` and ustar its postprocessed
    coefficients (J, ne, d_hi).  Returns (points (ne, 4, 2), u (J, ne, 4),
    ustar (J, ne, 4)).
    """
    pts = disc.geom.points(_SNAP_REF)
    u = state.u @ disc.elem_basis.eval(_SNAP_REF)
    return pts, u, ustar @ disc.elem_basis_hi.eval(_SNAP_REF)


def write_snapshot_csv(disc, state, path, ustar):
    """Per-element point samples of u and u* for plotting, as CSV."""
    pts, u, ustar = snapshot_values(disc, state, ustar)
    J = u.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["member", "element", "x", "y", "u", "ustar"])
        for j in range(J):
            for e in range(u.shape[1]):
                for p in range(4):
                    writer.writerow([str(j + 1), str(e),
                                     repr(float(pts[e, p, 0])),
                                     repr(float(pts[e, p, 1])),
                                     repr(float(u[j, e, p])),
                                     repr(float(ustar[j, e, p]))])


def write_snapshot_vtk(disc, state, path, ustar):
    """Legacy ASCII VTK POLYDATA snapshot (triangles, point scalars).

    Vertices are replicated per element so the discontinuous fields render
    faithfully; two scalar arrays per member, u_j and ustar_j.
    """
    mesh = disc.mesh
    pts, u, ustar = snapshot_values(disc, state, ustar)
    ne = mesh.n_elements
    corners = pts[:, :3, :].reshape(-1, 2)
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("ensemble HDG field snapshot\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {3 * ne} double\n")
        for x, y in corners:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        fh.write(f"POLYGONS {ne} {4 * ne}\n")
        for e in range(ne):
            fh.write(f"3 {3 * e} {3 * e + 1} {3 * e + 2}\n")
        fh.write(f"POINT_DATA {3 * ne}\n")
        fields = [(f"u{j + 1}", u[j, :, :3]) for j in range(u.shape[0])]
        fields += [(f"ustar{j + 1}", ustar[j, :, :3])
                   for j in range(ustar.shape[0])]
        for name, vals in fields:
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for v in vals.reshape(-1):
                fh.write(f"{float(v)!r}\n")


def load_config(path):
    """Read an INI-style run configuration.

    Section [run] carries the CLI options under the dests of their flags.
    Every subcommand reads example, degree, levels, dt_rule, T and out;
    converge, run and check also read strict_admissibility, run and check
    mesh_file, and run snapshot; the CLI rejects a key its subcommand does
    not read.  An optional [custom] section defines a constant-coefficient
    ensemble with keys J, c, beta_x, beta_y, f (comma-separated per-member
    finite values) and optional T.  A T must be finite and positive.
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    cfg = {}
    if parser.has_section("run"):
        run = parser["run"]
        for key in ("example", "degree"):
            if key in run:
                cfg[key] = _read(run, key, int)
        for key in ("levels", "dt_rule", "out", "mesh_file", "snapshot"):
            if key in run:
                cfg[key] = run.get(key)
        if "T" in run:
            cfg["T"] = _read(run, "T", final_time)
        if "strict_admissibility" in run:
            cfg["strict_admissibility"] = _read(
                run, "strict_admissibility", lambda _: run.getboolean(
                    "strict_admissibility"))
    if parser.has_section("custom"):
        sec = parser["custom"]
        vals = {}
        for key in ("c", "beta_x", "beta_y", "f"):
            if key not in sec:
                raise ValueError(f"config section [custom] has no {key!r}")
            vals[key] = _read(sec, key, lambda text: [
                _finite(s) for s in text.split(",")])
        J = _read(sec, "J", int) if "J" in sec else len(vals["c"])
        if any(len(v) != J for v in vals.values()):
            raise ValueError(f"config section [custom]: the member lists "
                             f"disagree with J = {J}")
        cfg["custom"] = {
            "c": vals["c"],
            "beta": list(zip(vals["beta_x"], vals["beta_y"])),
            "f": vals["f"],
        }
        if "T" in sec:
            cfg["custom"]["T"] = _read(sec, "T", final_time)
    return cfg


def _read(section, key, convert):
    """convert(value) of a config key; a bad value names section and key."""
    try:
        return convert(section[key])
    except ValueError as exc:
        raise ValueError(f"config section [{section.name}], key {key!r}: "
                         f"{exc}") from None


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def final_time(value):
    """value as a final time, which must be finite and positive."""
    T = float(value)
    if not 0 < T < math.inf:
        raise ValueError(f"final time T = {T!r}: give a finite T > 0")
    return T


def problem_from_config(cfg):
    """Materialize the ensemble a config describes (custom or example)."""
    if "custom" in cfg:
        c = cfg["custom"]
        return constant_ensemble(c["c"], c["beta"], c["f"],
                                 default_T=c.get("T", 0.1), name="custom")
    if "example" in cfg:
        return get_example(cfg["example"])
    raise ValueError("config defines neither an example nor a custom problem")
