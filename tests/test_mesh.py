import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from ensemble_hdg.basis import triangle_quadrature
from ensemble_hdg.mesh import (Mesh, BatchedGeometry,
                               build_uniform_square_mesh, element_points,
                               read_mesh_text, uniform_grid_points,
                               write_mesh_text)

from oracles import face_connectivity, loop_h_max


def test_single_cell_split():
    m = build_uniform_square_mesh(1)
    assert m.n_elements == 2
    assert m.n_vertices == 4
    assert m.n_faces == 5
    assert m.n_interior_faces == 1


def test_paper_scale_element_count():
    m = build_uniform_square_mesh(256)
    assert m.n_elements == 131072
    assert abs(m.h_max - np.sqrt(2) / 256) < 1e-15


def test_structured_counts_and_euler():
    m = build_uniform_square_mesh(4)
    assert m.n_elements == 32
    assert m.n_vertices == 25
    assert m.n_faces == 56
    assert m.n_vertices - m.n_faces + m.n_elements == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_mesh_invariants(n):
    m = build_uniform_square_mesh(n)
    assert abs(m.h_max - np.sqrt(2) / n) < 1e-15
    assert abs(0.5 * BatchedGeometry(m).det.sum() - 1.0) < 1e-14
    # interior faces have two elements, boundary faces one
    interior = ~m.boundary
    assert np.all(m.face_elements[interior, 1] >= 0)
    assert np.all(m.face_elements[m.boundary, 1] == -1)
    assert m.n_vertices - m.n_faces + m.n_elements == 1
    # adjacency is an involution
    for f in range(m.n_faces):
        for side in range(2):
            e, lf = m.face_elements[f, side], m.face_local[f, side]
            if e >= 0:
                assert m.elem_faces[e, lf] == f


def test_rejects_invalid_input():
    with pytest.raises(ValueError):
        build_uniform_square_mesh(0)
    # clockwise element
    with pytest.raises(ValueError):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.array([[0, 2, 1]]))
    with pytest.raises(ValueError, match="vertex 1 has non-finite"):
        Mesh(np.array([[0.0, 0.0], [np.inf, 0.0], [0.0, 1.0]]),
             np.array([[0, 1, 2]]))
    with pytest.raises(ValueError,
                       match=r"^vertices \(3, 3\) are not \(nv, 2\)$"):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError,
                       match=r"^elements \(1, 4\) are not \(ne, 3\)$"):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
             np.array([[0, 1, 2, 3]]))
    with pytest.raises(ValueError, match="mesh has no elements"):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
             np.empty((0, 3), dtype=int))
    # three triangles on the edge (0, 0)-(1, 0), two above it, one below
    with pytest.raises(ValueError,
                       match="non-conforming mesh: a face has > 2 elements"):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0],
                       [0.5, -1.0]]),
             np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]))


@pytest.mark.parametrize("elements", [[[0, 1, 2], [0, 1, 3]],
                                      [[0, 1, 2], [0, 1, 2]]],
                         ids=["overlapping", "repeated"])
def test_rejects_elements_that_traverse_an_edge_the_same_way(elements):
    """Two triangles above the edge (0, 0)-(1, 0), or one listed twice:
    the shared edge was an interior face, and a repeated element left
    no boundary at all."""
    with pytest.raises(ValueError, match=r"elements 0 and 1 overlap: both "
                       r"traverse edge \(0, 1\) the same way"):
        Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0]]),
             np.array(elements))


def test_folded_mesh_file_names_the_file(tmp_path, single_cell_mesh):
    """The single cell's upper triangle replaced by (0, 1, 2), which lies
    above the bottom edge (0, 1) as the lower triangle does: a fold."""
    path = tmp_path / "folded.mesh"
    write_mesh_text(single_cell_mesh, path)
    lines = path.read_text().splitlines()
    assert lines[5:7] == ["0 1 3", "0 3 2"]
    lines[6] = "0 1 2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=(
            f"mesh file {re.escape(str(path))}: elements 0 and 1 overlap: "
            r"both traverse edge \(0, 1\) the same way")):
        read_mesh_text(path)


@pytest.mark.parametrize("bad", [1.7, np.nan, np.inf])
def test_rejects_non_integer_vertex_indices(mesh2, bad):
    """A cast truncated (0, 1.7, 2) to the element (0, 1, 2)."""
    elements = mesh2.elements.astype(float)
    elements[3, 1] = bad
    with pytest.raises(ValueError, match=r"element 3 has non-integer "
                       rf"vertex indices \[\d\.0, {bad}, \d\.0\]"):
        Mesh(mesh2.vertices, elements)
    # whole numbers in a float array are indices
    elements[3, 1] = mesh2.elements[3, 1]
    m = Mesh(mesh2.vertices, elements)
    assert m.elements.dtype == np.int64
    assert np.array_equal(m.elements, mesh2.elements)
    assert np.array_equal(m.faces, mesh2.faces)


def jittered_mesh(n, rng):
    """The uniform n mesh with its interior vertices moved by up to a
    fifth of a cell, which keeps every element counter-clockwise."""
    m = build_uniform_square_mesh(n)
    vertices = m.vertices.copy()
    interior = np.all((vertices > 0) & (vertices < 1), axis=1)
    vertices[interior] += rng.uniform(-0.2, 0.2, (interior.sum(), 2)) / n
    return Mesh(vertices, m.elements)


def shuffled_mesh(n, rng):
    """The uniform n mesh with its element rows shuffled and each
    element's vertices rotated by 0, 1 or 2 places."""
    m = build_uniform_square_mesh(n)
    elements = m.elements[rng.permutation(m.n_elements)]
    shift = rng.integers(0, 3, (len(elements), 1))
    rotated = np.take_along_axis(elements, (np.arange(3) + shift) % 3, 1)
    return Mesh(m.vertices, rotated)


def l_shaped_mesh(n, tmp_path):
    """The uniform n mesh (n even) without its upper-right quarter, its
    vertices renumbered, written with `write_mesh_text` and read back."""
    m = build_uniform_square_mesh(n)
    cen = m.vertices[m.elements].mean(axis=1)
    elements = m.elements[~np.all(cen > 0.5, axis=1)]
    used = np.unique(elements)
    renumber = np.zeros(m.n_vertices, dtype=np.int64)
    renumber[used] = np.arange(len(used))
    path = tmp_path / "l-shape.mesh"
    write_mesh_text(Mesh(m.vertices[used], renumber[elements]), path)
    return read_mesh_text(path)


@pytest.mark.parametrize("kind, n", [("uniform", n) for n in range(1, 6)]
                         + [("uniform", 64), ("jittered", 4), ("shuffled", 4),
                            ("shuffled", 5), ("l-shaped", 6)])
def test_connectivity_matches_the_loop_oracle(kind, n, rng, tmp_path):
    """Every connectivity array, dtype included, and h_max to the bit."""
    if kind == "uniform":
        m = build_uniform_square_mesh(n)
    elif kind == "jittered":
        m = jittered_mesh(n, rng)
    elif kind == "shuffled":
        m = shuffled_mesh(n, rng)
    else:
        m = l_shaped_mesh(n, tmp_path)
        assert (m.n_elements, m.n_interior_faces) == (54, 69)
    for name, want in face_connectivity(m.elements).items():
        got = getattr(m, name)
        assert got.dtype == (bool if name == "boundary" else np.int64), name
        assert np.array_equal(got, want), name
    assert m.elements.dtype == np.int64
    assert type(m.h_max) is float and m.h_max == loop_h_max(m)


@pytest.mark.parametrize("level", range(9))
def test_uniform_h_max_is_the_formula_to_the_bit(level):
    """The studies and `bench` take h = sqrt(2) / n, `run` and `check`
    read h_max: on n = 2^level both give the same bits."""
    n = 2 ** level
    assert build_uniform_square_mesh(n).h_max == math.sqrt(2) / n


def test_shared_face_normals_negate(mesh2):
    g = BatchedGeometry(mesh2)
    for f in np.nonzero(~mesh2.boundary)[0]:
        (e0, e1), (l0, l1) = mesh2.face_elements[f], mesh2.face_local[f]
        assert np.abs(g.normals[e0, l0] + g.normals[e1, l1]).max() == 0.0


def test_canonical_orientation_matches_owner(mesh4):
    g = BatchedGeometry(mesh4)
    for f in range(mesh4.n_faces):
        e0, l0 = mesh4.face_elements[f, 0], mesh4.face_local[f, 0]
        e1 = mesh4.face_elements[f, 1]
        if e1 >= 0:
            assert e0 < e1  # owner is the lower element index
        va, vb = mesh4.vertices[mesh4.faces[f]]
        t = vb - va
        nrm = np.array([t[1], -t[0]]) / np.hypot(*t)
        assert np.abs(nrm - g.normals[e0, l0]).max() < 1e-14


def test_element_geometry_reference_triangle(reference_triangle_mesh):
    g = BatchedGeometry(reference_triangle_mesh)
    assert abs(0.5 * g.det[0] - 0.5) < 1e-15
    assert abs(g.det[0] - 1.0) < 1e-15
    # hypotenuse (local face 1) normal
    s = 1 / np.sqrt(2.0)
    assert np.abs(g.normals[0, 1] - [s, s]).max() < 1e-15
    lengths = np.linalg.norm(g.normals[0], axis=1)
    assert np.abs(lengths - 1.0).max() < 1e-14


def test_element_geometry_uniform_areas(mesh2):
    g = BatchedGeometry(mesh2)
    assert len(g.det) == mesh2.n_elements
    assert np.abs(0.5 * g.det - 1 / 8).max() < 1e-15


@pytest.mark.parametrize("kind, n", [("uniform", 3), ("uniform", 64),
                                     ("jittered", 8)])
def test_geometry_matches_the_2d_corner_gather_bitwise(kind, n, rng):
    """The corners come from 1-D gathers of x and y; every table equals,
    bit for bit, that of corners gathered as vertices[elements]: the
    geometry of a mesh whose vertices are those corners, row by row."""
    m = build_uniform_square_mesh(n) if kind == "uniform" else \
        jittered_mesh(n, rng)
    gathered = SimpleNamespace(
        vertices=m.vertices[m.elements].reshape(-1, 2),
        elements=np.arange(3 * m.n_elements).reshape(-1, 3))
    got, want = BatchedGeometry(m), BatchedGeometry(gathered)
    assert np.array_equal(got.corners, m.vertices[m.elements])
    for name in ("corners", "det", "inv", "edge_lengths", "normals"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_points_round_as_two_products_and_two_sums():
    """On a mesh whose points are not dyadic, a fused multiply-add (as in
    a BLAS kernel) rounds some of them differently: the map stays exactly
    v0 + (B[:, 0] r0 + B[:, 1] r1) in Python floats."""
    m = build_uniform_square_mesh(3)
    g = BatchedGeometry(m)
    ref = triangle_quadrature(8).points
    X = g.points(ref)
    for e in range(m.n_elements):
        v = g.corners[e]
        (b00, b10), (b01, b11) = (v[1:] - v[0]).tolist()
        x0, y0 = v[0].tolist()
        for q, (r0, r1) in enumerate(ref.tolist()):
            assert X[e, q].tolist() == [b00 * r0 + b01 * r1 + x0,
                                        b10 * r0 + b11 * r1 + y0]


def test_points_of_element_blocks_are_the_whole_mesh_rows(rng):
    """element_points maps the corners of any block of elements: each
    block's x and y are, bit for bit, its rows of the whole-mesh map."""
    m = jittered_mesh(5, rng)
    ref = triangle_quadrature(6).points
    X = BatchedGeometry(m).points(ref)
    for start, stop in [(0, 1), (0, 7), (7, 49), (49, m.n_elements)]:
        x, y = element_points(m.vertices[m.elements[start:stop]], ref)
        assert x.shape == y.shape == (stop - start, len(ref))
        assert np.array_equal(x, X[start:stop, :, 0])
        assert np.array_equal(y, X[start:stop, :, 1])


@pytest.mark.parametrize("order", [4, 6, 8, 12])
@pytest.mark.parametrize("n", [1, 3, 8, 128])
def test_uniform_grid_points_are_the_mesh_points(n, order):
    """The columns' x and the rows' y, broadcast over the grid in element
    order, are bit for bit element_points of the built mesh."""
    ref = triangle_quadrature(order).points
    m = build_uniform_square_mesh(n)
    X, Y = element_points(m.vertices[m.elements], ref)
    xs, ys = uniform_grid_points(n, ref)
    assert xs.shape == ys.shape == (n, 2, len(ref))
    grid = (n, n, 2, len(ref))
    assert np.array_equal(X, np.broadcast_to(xs, grid).reshape(X.shape))
    assert np.array_equal(Y, np.broadcast_to(ys[:, None], grid).reshape(
        Y.shape))


def test_mesh_text_roundtrip(tmp_path, mesh4):
    path = tmp_path / "square.mesh"
    write_mesh_text(mesh4, path)
    back = read_mesh_text(path)
    assert np.array_equal(back.vertices, mesh4.vertices)
    assert np.array_equal(back.elements, mesh4.elements)
    assert np.array_equal(back.boundary, mesh4.boundary)


def test_mesh_text_validates_faces(tmp_path, mesh2):
    path = tmp_path / "bad.mesh"
    write_mesh_text(mesh2, path)
    lines = path.read_text().splitlines()
    # flip a boundary flag on the last face line
    last = lines[-1].split()
    last[2] = "0" if last[2] == "1" else "1"
    lines[-1] = " ".join(last)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_mesh_text(path)


@pytest.mark.parametrize("ie, index", [(6, -1), (2, 99)])
def test_rejects_out_of_range_vertex_index(tmp_path, mesh2, ie, index):
    """-1 would wrap to the last vertex and 99 index past the end: both
    name the element, through the constructor and the text format."""
    elements = mesh2.elements.copy()
    elements[ie, 2] = index
    with pytest.raises(ValueError, match=f"element {ie} "):
        Mesh(mesh2.vertices, elements)
    path = tmp_path / "bad.mesh"
    write_mesh_text(mesh2, path)
    lines = path.read_text().splitlines()
    row = 1 + mesh2.n_vertices + ie
    lines[row] = " ".join(lines[row].split()[:2] + [str(index)])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"element {ie} "):
        read_mesh_text(path)


@pytest.mark.parametrize("case, message", [
    ("nan-vertex", r"vertex 3 has non-finite coordinates \[nan, 0\.5\]"),
    ("trailing-tokens",
     r"2 token\(s\) after the declared 9 vertices, 8 elements and 16 faces"),
    ("non-integer-index", r"element 3: '1\.5' is not an integer"),
    ("no-elements", "mesh has no elements"),
    ("truncated", "truncated in face 15"),
    ("face-count", "declares 15 faces, connectivity builds 16"),
    ("missing-face", r"face \(8, 7\) missing from the face list"),
])
def test_malformed_mesh_file_names_the_file(tmp_path, mesh2, case, message):
    """A non-finite coordinate made h_max nan, trailing tokens were
    ignored, a non-integer index gave a bare int() error and a mesh with
    no elements a numpy reduction error: each fails naming the file and
    what is wrong in it, as does a file that ends inside its face list,
    declares another number of faces than its elements make, or lists
    one face twice and another not at all."""
    path = tmp_path / "bad.mesh"
    write_mesh_text(mesh2, path)
    lines = path.read_text().splitlines()
    if case == "nan-vertex":
        lines[1 + 3] = "nan 0.5"
    elif case == "trailing-tokens":
        lines.append("7 8")
    elif case == "no-elements":
        lines = ["0 0 0"]
    elif case == "truncated":
        lines = lines[:-1]
    elif case == "face-count":
        lines = ["9 8 15"] + lines[1:-1]
    elif case == "missing-face":
        lines[-1] = lines[-2]
    else:
        row = 1 + mesh2.n_vertices + 3
        lines[row] = " ".join(lines[row].split()[:2] + ["1.5"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=f"mesh file {re.escape(str(path))}: {message}"):
        read_mesh_text(path)

