import numpy as np
import pytest
import scipy.sparse as sp

from ensemble_hdg.discretization import Discretization
from ensemble_hdg.local import BlockTables, condense_all
from ensemble_hdg.mesh import Mesh, build_uniform_square_mesh
from ensemble_hdg.problems import example1
from ensemble_hdg.solver import EnsembleSolver, initialize
from ensemble_hdg.trace_system import assemble_trace_matrix

from samples import sampled_blocks


def build_system(mesh, k, rng=None):
    disc = Discretization(mesh, k)
    ne = mesh.n_elements
    nq, nqf = len(disc.w_data), len(disc.w_fdata)
    if rng is None:
        cbar = np.ones((ne, nq))
        bbar = np.zeros((ne, nq, 2))
        bbar_f = np.zeros((ne, 3, nqf, 2))
    else:
        cbar = 1.0 + rng.random((ne, nq))
        bbar = rng.normal(size=(ne, nq, 2))
        bbar_f = rng.normal(size=(ne, 3, nqf, 2))
    tables = BlockTables(disc, 2.0, 0.5)
    cond = condense_all(tables, *sampled_blocks(disc, tables, cbar, bbar,
                                                bbar_f))
    system = assemble_trace_matrix(disc, cond.schur)
    return disc, cond, system


def test_two_element_mesh_is_one_by_one(single_cell_mesh):
    disc, cond, system = build_system(single_cell_mesh, 0)
    assert system.matrix.shape == (1, 1)
    assert system.n_dofs == 1


def test_n2_k0_dimension(mesh2):
    # 3 n^2 - 2 n interior faces at n = 2 -> 8
    disc, cond, system = build_system(mesh2, 0)
    assert system.matrix.shape == (8, 8)


def test_matrix_matches_elementwise_application(mesh4, rng):
    """Random matvec vs scattering the per-element Schur action."""
    disc, cond, system = build_system(mesh4, 1, rng)
    n = system.n_dofs
    x = rng.normal(size=n)
    got = system.matrix @ x
    want = np.zeros(n)
    dof = disc.trace_dof
    for ie in range(mesh4.n_elements):
        idx = dof[ie]
        loc = np.where(idx >= 0, x[np.maximum(idx, 0)], 0.0)
        contrib = cond.schur[ie] @ loc
        for r, g in enumerate(idx):
            if g >= 0:
                want[g] += contrib[r]
    assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("k", [0, 1, 2])
def test_matrix_is_scatter_of_block_diagonal(mesh4, rng, k):
    """The assembled matrix is S blockdiag(schur) S^T for the
    discretization's trace scatter S."""
    disc = Discretization(mesh4, k)
    T = disc.trace_dof.shape[1]
    schur = rng.normal(size=(mesh4.n_elements, T, T))
    got = assemble_trace_matrix(disc, schur).matrix.toarray()
    S = disc.trace_scatter
    want = (S @ sp.block_diag(list(schur)) @ S.T).toarray()
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert (disc.trace_gather != S.T).nnz == 0


def test_factorize_and_residual(mesh4, rng):
    disc, cond, system = build_system(mesh4, 1, rng)
    system.factorize()
    b = rng.normal(size=(system.n_dofs, 1))
    x = system.solve_multi(b)
    assert system.residual(x, b).max() < 1e-11


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
    """All-zero Schur blocks give the zero matrix on the trace pattern;
    SuperLU's error is re-raised as the factorization's."""
    disc = Discretization(mesh2, 0)
    T = disc.trace_dof.shape[1]
    system = assemble_trace_matrix(disc, np.zeros((mesh2.n_elements, T, T)))
    with pytest.raises(RuntimeError, match=r"^trace matrix factorization "
                       r"failed: Factor is exactly singular$"):
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
    assert np.array_equal(_nested_dissection_positions(mesh),
                          scatter_bisection_positions(mesh, 8))


@pytest.mark.parametrize("kind", ["uniform", "jittered"])
def test_nested_dissection_fills_less_than_minimum_degree(rng, kind):
    """Example 1's n=32 trace matrix: its LU in the nested-dissection
    numbering fills at most 0.9x what minimum degree on A^T + A fills on
    the same matrix with the interior faces in index order."""
    import scipy.sparse.linalg as spla

    from test_mesh import jittered_mesh

    mesh = build_uniform_square_mesh(32) if kind == "uniform" else \
        jittered_mesh(32, rng)
    disc = Discretization(mesh, 1)
    spec = example1()
    solver = EnsembleSolver(disc, spec, dt=0.01, tau=2.68)
    solver.step(initialize(spec, disc))
    system = solver.system
    fill = system._solver.L.nnz + system._solver.U.nnz
    pos = face_positions(disc)[~mesh.boundary]
    nfd = disc.ndof_face
    by_index = (pos[:, None] * nfd + np.arange(nfd)).ravel()
    A = system.matrix.tocsr()[by_index][:, by_index].tocsc()
    mmd = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    assert fill <= 0.9 * (mmd.L.nnz + mmd.U.nnz)


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
