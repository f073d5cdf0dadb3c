import re

import numpy as np
import pytest
import scipy.sparse as sp

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import BlockTables, condense_all
from ensemble_hdg.mesh import Mesh, build_uniform_square_mesh
from ensemble_hdg.problems import example1
from ensemble_hdg.solver import EnsembleSolver, initialize
from ensemble_hdg.trace_system import assemble_trace_matrix

from oracles import full_trace_matrix
from samples import sampled_blocks


def build_system(mesh, k, rng=None, tau=2.0, velocity=None):
    """The condensed blocks and the trace system of mean samples on mesh:
    c = 1 and β = 0 without rng, random ones with it, or c = 1 and the
    samples velocity(X) of a velocity field."""
    disc = Discretization(mesh, k)
    ne = mesh.n_elements
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    if rng is None:
        cbar = np.ones((ne, nq))
        bbar, bbar_f = (np.zeros(X.shape) if velocity is None else
                        velocity(X) for X in (disc.X_data, disc.Xf_fdata))
    else:
        cbar = 1.0 + rng.random((ne, nq))
        bbar = rng.normal(size=(ne, nq, 2))
        bbar_f = rng.normal(size=(ne, 3, nqf, 2))
    tables = BlockTables(disc, tau, 0.5)
    cond = condense_all(tables, *sampled_blocks(disc, tables, cbar, bbar,
                                                bbar_f))
    system = assemble_trace_matrix(disc, cond.schur)
    return disc, cond, system


def padding(leaves):
    """The padded interior rows (L, nI) of the leaf blocks, read off the
    flat diagonal slots `pad` of the blocks (L, P, P)."""
    L, ni = leaves.interior.shape
    P = ni + leaves.boundary.shape[1]
    pad = np.zeros((L, ni), dtype=bool)
    pad[np.divmod(leaves.pad // P, P)] = True
    return pad


def leaf_matrix(system):
    """The trace matrix the leaf blocks of system stand for: each block
    scattered to its rows' DOFs, the padded interior rows dropped."""
    leaves = system.leaves
    dofs = np.concatenate([leaves.interior,
                           leaves.separators[leaves.boundary]], axis=1)
    real = np.ones(dofs.shape, dtype=bool)
    real[:, :leaves.interior.shape[1]] = ~padding(leaves)
    keep = real[:, :, None] & real[:, None, :]
    rows = np.broadcast_to(dofs[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(dofs[:, None, :], keep.shape)[keep]
    n = system.n_dofs
    return sp.csr_matrix((system.blocks[keep], (rows, cols)), shape=(n, n))


def separator_matrix(system):
    """The matrix the separators' SuperLU object factorized:
    Pr A Pc = L U."""
    lu = system._solver
    n = lu.shape[0]
    Pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))), shape=(n, n))
    Pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)), shape=(n, n))
    return (Pr.T @ (lu.L @ lu.U) @ Pc.T).toarray()


def test_two_element_mesh_is_one_by_one(single_cell_mesh):
    disc, cond, system = build_system(single_cell_mesh, 0)
    assert full_trace_matrix(disc, cond.schur).shape == (1, 1)
    assert system.n_dofs == 1


def test_n2_k0_dimension(mesh2):
    # 3 n^2 - 2 n interior faces at n = 2 -> 8
    disc, cond, system = build_system(mesh2, 0)
    assert full_trace_matrix(disc, cond.schur).shape == (8, 8)
    assert system.n_dofs == 8


def test_matrix_matches_elementwise_application(mesh4, rng):
    """Random matvec vs scattering the per-element Schur action."""
    disc, cond, system = build_system(mesh4, 1, rng)
    n = system.n_dofs
    x = rng.normal(size=n)
    want = np.zeros(n)
    dof = disc.trace_dof
    for ie in range(mesh4.n_elements):
        idx = dof[ie]
        loc = np.where(idx >= 0, x[np.maximum(idx, 0)], 0.0)
        contrib = cond.schur[ie] @ loc
        for r, g in enumerate(idx):
            if g >= 0:
                want[g] += contrib[r]
    for got in (full_trace_matrix(disc, cond.schur) @ x,
                leaf_matrix(system) @ x):
        assert np.abs(got - want).max() < 1e-12 * max(1.0,
                                                      np.abs(want).max())


@pytest.mark.parametrize("k", [0, 1, 2])
def test_matrix_is_scatter_of_block_diagonal(mesh4, rng, k):
    """The trace matrix is S blockdiag(schur) S^T for the discretization's
    trace scatter S, and so is the sum of the leaf blocks."""
    disc = Discretization(mesh4, k)
    T = disc.trace_dof.shape[1]
    schur = rng.normal(size=(mesh4.n_elements, T, T))
    S = disc.trace_scatter
    want = (S @ sp.block_diag(list(schur)) @ S.T).toarray()
    for got in (full_trace_matrix(disc, schur).toarray(),
                leaf_matrix(assemble_trace_matrix(disc, schur)).toarray()):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert (disc.trace_gather != S.T).nnz == 0


def indefinite_velocity(X):
    """β̄ = -100 (x, y), not divergence free: with tau = 1e-6 the
    elements' Schur blocks are indefinite (`test_local`)."""
    return -100 * X


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("kind, n", [
    ("uniform", 1), ("uniform", 2), ("uniform", 3), ("uniform", 5),
    ("jittered", 12), ("shuffled", 10), ("indefinite", 5)])
def test_leaf_solve_matches_the_whole_trace_matrix(rng, kind, n, k):
    """solve_multi against a dense solve of the whole trace matrix: one
    leaf and no separators (n = 1, 2), leaves of unequal sizes (n = 3, 5),
    moved vertices, shuffled elements, and indefinite element blocks.
    The separator matrix is the dense Schur complement of the whole
    matrix on the separator DOFs."""
    from test_mesh import jittered_mesh, shuffled_mesh

    mesh = {"jittered": jittered_mesh, "shuffled": shuffled_mesh}[kind](
        n, rng) if kind in ("jittered", "shuffled") else \
        build_uniform_square_mesh(n)
    disc, cond, system = build_system(
        mesh, k, *((None, 1e-6, indefinite_velocity)
                   if kind == "indefinite" else (rng,)))
    A = full_trace_matrix(disc, cond.schur).toarray()
    B = rng.normal(size=(system.n_dofs, 3))
    want = np.linalg.solve(A, B)
    got = system.factorize().solve_multi(B)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    sep = system.leaves.separators
    inner = np.setdiff1d(np.arange(system.n_dofs), sep)
    schur = A[np.ix_(sep, sep)] - A[np.ix_(sep, inner)] @ np.linalg.solve(
        A[np.ix_(inner, inner)], A[np.ix_(inner, sep)])
    assert separator_matrix(system).shape == schur.shape
    if len(sep):
        assert np.abs(separator_matrix(system) - schur).max() <= \
            1e-12 * np.abs(schur).max()


def test_leaves_split_at_the_separators(rng):
    """Every DOF is one leaf's interior row or a separator, and a face is
    a separator face when its two elements lie in different leaves."""
    from test_mesh import jittered_mesh

    mesh = jittered_mesh(12, rng)
    disc = Discretization(mesh, 2)
    leaves, nfd = disc.trace_leaves, disc.ndof_face
    interior = leaves.interior[~padding(leaves)]
    assert np.array_equal(np.sort(np.concatenate([interior,
                                                  leaves.separators])),
                          np.arange(disc.n_trace_dofs))
    pos = face_positions(disc)
    e0, e1 = mesh.face_elements[~mesh.boundary].T
    split = leaves.leaf[e0] != leaves.leaf[e1]
    want = np.sort(pos[~mesh.boundary][split])
    assert np.array_equal(leaves.separators[::nfd] // nfd, want)


def test_factorize_and_residual(mesh4, rng):
    disc, cond, system = build_system(mesh4, 1, rng)
    system.factorize()
    b = rng.normal(size=(system.n_dofs, 1))
    x = system.solve_multi(b)
    assert system.residual(x, b).max() < 1e-11


def test_residual_is_the_whole_systems(rng):
    """The residual of a solution perturbed at one DOF inside a leaf is
    that of the whole trace matrix, not the separators' (which the
    perturbation leaves alone)."""
    disc, cond, system = build_system(build_uniform_square_mesh(5), 1, rng)
    system.factorize()
    b = rng.normal(size=(system.n_dofs, 2))
    x = system.solve_multi(b)
    inside = system.leaves.interior[2, 1]
    assert inside not in system.leaves.separators
    x[inside] += 1e-3
    A = full_trace_matrix(disc, cond.schur)
    want = np.linalg.norm(A @ x - b, axis=0) / np.linalg.norm(b, axis=0)
    got = system.residual(x, b)
    assert (want > 1e-6).all()
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_multi_rhs_matches_sequential(mesh4, rng):
    disc, cond, system = build_system(mesh4, 0, rng)
    system.factorize()
    B = rng.normal(size=(system.n_dofs, 3))
    X = system.solve_multi(B)
    for j in range(3):
        xj = system.solve_multi(B[:, j:j + 1])[:, 0]
        assert np.abs(X[:, j] - xj).max() < 1e-13
    # zero RHS -> zero solution
    z = system.solve_multi(np.zeros((system.n_dofs, 2)))
    assert np.abs(z).max() == 0.0


def test_factorization_reuse_is_deterministic(mesh2, rng):
    disc, cond, system = build_system(mesh2, 1, rng)
    system.factorize()
    b = rng.normal(size=(system.n_dofs, 1))
    assert np.array_equal(system.solve_multi(b), system.solve_multi(b))


def test_solve_requires_factorization(mesh2):
    disc, cond, system = build_system(mesh2, 0)
    with pytest.raises(RuntimeError):
        system.solve_multi(np.ones((system.n_dofs, 1)))
    system.factorize()
    with pytest.raises(ValueError):
        system.solve_multi(np.ones((system.n_dofs + 1, 1)))


def test_singular_trace_matrix_fails_naming_the_factorization(mesh2):
    """All-zero Schur blocks give zero leaf blocks; n = 2 is one leaf, and
    the factorization names all its elements."""
    disc = Discretization(mesh2, 0)
    T = disc.trace_dof.shape[1]
    system = assemble_trace_matrix(disc, np.zeros((mesh2.n_elements, T, T)))
    with pytest.raises(RuntimeError, match=r"^trace matrix factorization "
                       r"failed: singular leaf block of elements "
                       r"\[0, 1, 2, 3, 4, 5, 6, 7\]$"):
        system.factorize()


def test_a_singular_leaf_is_named_by_its_elements(mesh4, rng):
    """n = 4 bisects into its four quadrants of 8 elements.  With the
    Schur blocks of the lower-left quadrant's elements zero, only that
    leaf's interior block is singular, and its elements are named."""
    disc, cond, _ = build_system(mesh4, 1, rng)
    mesh = disc.mesh
    centroid = mesh.vertices[mesh.elements].mean(axis=1)
    quadrant = np.flatnonzero((centroid < 0.5).all(axis=1))
    assert len(quadrant) == 8
    schur = cond.schur.copy()
    schur[quadrant] = 0.0
    system = assemble_trace_matrix(disc, schur)
    with pytest.raises(RuntimeError, match=r"^trace matrix factorization "
                       r"failed: singular leaf block of elements "
                       + re.escape(str(quadrant.tolist())) + "$"):
        system.factorize()


def test_unsupported_degree_is_named(mesh2):
    with pytest.raises(ValueError,
                       match=r"^degree 4: supported degrees are 0\.\.3$"):
        Discretization(mesh2, 4)


def test_shape_mismatch_rejected(mesh2):
    disc = Discretization(mesh2, 0)
    with pytest.raises(ValueError):
        assemble_trace_matrix(disc, np.zeros((3, 3, 3)))


def face_positions(disc):
    """The block position of every face in the trace numbering, read off
    `trace_dof` from each of its elements' sides (-1 on boundary faces)."""
    mesh, nfd = disc.mesh, disc.ndof_face
    dof = disc.trace_dof.reshape(mesh.n_elements, 3, nfd)
    fe, fl = mesh.face_elements, mesh.face_local
    sides = [dof[np.maximum(fe[:, s], 0), fl[:, s]] for s in (0, 1)]
    # a face's DOFs are consecutive, starting at a multiple of nfd
    for side in sides:
        inner = side[~mesh.boundary]
        assert np.array_equal(inner, inner[:, :1] + np.arange(nfd))
        assert np.all(inner[:, 0] % nfd == 0)
    assert np.array_equal(sides[0][~mesh.boundary],
                          sides[1][~mesh.boundary])
    return np.where(mesh.boundary, -1, sides[0][:, 0] // nfd)


@pytest.mark.parametrize("kind, n, k", [("uniform", 1, 0), ("uniform", 5, 1),
                                        ("uniform", 12, 2),
                                        ("jittered", 12, 1)])
def test_each_interior_face_gets_one_block_of_trace_dofs(rng, kind, n, k):
    from test_mesh import jittered_mesh

    mesh = build_uniform_square_mesh(n) if kind == "uniform" else \
        jittered_mesh(n, rng)
    disc = Discretization(mesh, k)
    pos = face_positions(disc)
    assert np.array_equal(np.sort(pos[~mesh.boundary]),
                          np.arange(mesh.n_interior_faces))
    bnd = mesh.boundary[mesh.elem_faces]
    assert np.all(disc.trace_dof.reshape(-1, 3, disc.ndof_face)[bnd] == -1)


@pytest.mark.parametrize("kind, n", [("uniform", 2), ("uniform", 7),
                                     ("jittered", 9), ("shuffled", 10)])
def test_trace_numbering_matches_the_recursive_dissection(rng, kind, n):
    from oracles import nested_dissection_faces
    from test_mesh import jittered_mesh, shuffled_mesh

    mesh = {"uniform": build_uniform_square_mesh, "jittered": jittered_mesh,
            "shuffled": shuffled_mesh}[kind](*((n,) if kind == "uniform"
                                               else (n, rng)))
    pos = face_positions(Discretization(mesh, 1))
    want = nested_dissection_faces(mesh, 8)
    assert np.array_equal(np.argsort(pos)[-len(want):], want)


@pytest.mark.parametrize("kind, n", [("uniform", n) for n in range(1, 10)]
                         + [("uniform", 64), ("jittered", 9),
                            ("jittered", 16), ("shuffled", 10),
                            ("shuffled", 16)])
def test_bisection_extents_match_the_scatter_reduction(rng, kind, n):
    """Part extents reduced over the runs of the previous level's sort
    give, position for position, the numbering of per-code scatter
    reductions (`np.minimum.at`, `np.maximum.at`)."""
    from oracles import scatter_bisection_positions
    from test_mesh import jittered_mesh, shuffled_mesh

    from ensemble_hdg.discretization import _nested_dissection_positions

    mesh = {"uniform": build_uniform_square_mesh, "jittered": jittered_mesh,
            "shuffled": shuffled_mesh}[kind](*((n,) if kind == "uniform"
                                               else (n, rng)))
    assert np.array_equal(_nested_dissection_positions(mesh)[0],
                          scatter_bisection_positions(mesh, 8))


@pytest.mark.parametrize("kind", ["uniform", "jittered"])
def test_nested_dissection_fills_less_than_minimum_degree(rng, kind):
    """Example 1's n=32 trace matrix: its LU in the nested-dissection
    numbering fills at most 0.9x what minimum degree on A^T + A fills on
    the same matrix with the interior faces in index order, and the LU of
    its separators, with the leaves condensed, at most 0.65x the former
    (0.57 on the uniform mesh)."""
    import scipy.sparse.linalg as spla

    from test_mesh import jittered_mesh

    mesh = build_uniform_square_mesh(32) if kind == "uniform" else \
        jittered_mesh(32, rng)
    disc = Discretization(mesh, 1)
    spec = example1()
    solver = EnsembleSolver(disc, spec, dt=0.01, tau=2.68)
    solver.step(initialize(spec, disc))
    A = full_trace_matrix(disc, solver.cond.schur)
    nd = spla.splu(A, permc_spec="NATURAL")
    fill = nd.L.nnz + nd.U.nnz
    pos = face_positions(disc)[~mesh.boundary]
    nfd = disc.ndof_face
    by_index = (pos[:, None] * nfd + np.arange(nfd)).ravel()
    mmd = spla.splu(A.tocsr()[by_index][:, by_index].tocsc(),
                    permc_spec="MMD_AT_PLUS_A")
    assert fill <= 0.9 * (mmd.L.nnz + mmd.U.nnz)
    separators = solver.system._solver
    assert separators.L.nnz + separators.U.nnz <= 0.65 * fill


def test_shuffled_element_rows_give_the_same_solution(rng):
    """The numbering follows the geometry, not the element order: with
    the element rows shuffled, u and q come out the same to rounding."""
    base = build_uniform_square_mesh(8)
    perm = rng.permutation(base.n_elements)
    states = [EnsembleSolver(Discretization(m, 1), example1(), dt=0.125,
                             tau=2.68).run(0.5)
              for m in (base, Mesh(base.vertices, base.elements[perm]))]
    for name in ("u", "q"):
        want = getattr(states[0], name)[:, perm]
        got = getattr(states[1], name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
