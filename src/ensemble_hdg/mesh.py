"""Conforming triangular meshes of the unit square with face connectivity.

A mesh stores vertices, counter-clockwise elements, a canonical face list and
the element/face adjacency needed by hybrid methods: every interior face knows
its two incident elements, every boundary face its single one.  Meshes are
immutable after construction and safe for concurrent reads: nothing is
cached on them.  `BatchedGeometry` holds the element maps.  `element_points`
is the one map of reference points to physical ones: it works per
coordinate on the corners of any set of elements, a whole mesh or a block
of one, so a caller that only reads points needs no geometry, and
`uniform_grid_points` gives those of a uniform mesh without building it.
"""

import numpy as np


class Mesh:
    """Triangulation with face connectivity and boundary classification.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array
        Vertex indices, counter-clockwise; two elements that share an edge
        traverse it in opposite directions.
    faces : (nf, 2) int array
        Vertex pairs in canonical orientation: as traversed by the incident
        element with the lower index, so the stored direction's right-hand
        normal is that element's outward normal.
    face_elements : (nf, 2) int array
        Incident element indices; column 1 is -1 on boundary faces.
    face_local : (nf, 2) int array
        Local face index (0..2) of this face within each incident element.
    elem_faces : (ne, 3) int array
        Global face index of each local face.
    boundary : (nf,) bool array
    h_max : float
        Maximum element diameter.
    """

    def __init__(self, vertices, elements, uniform_n=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        raw = np.asarray(elements)
        with np.errstate(invalid="ignore"):
            self.elements = np.ascontiguousarray(raw, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError(f"vertices {self.vertices.shape} are not (nv, 2)")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise ValueError(f"elements {self.elements.shape} are not (ne, 3)")
        if len(self.elements) == 0:
            raise ValueError("mesh has no elements")
        if raw.dtype.kind not in "iu":
            # a cast would truncate 1.7 to 1 and turn nan into an index
            cut = (self.elements != raw).any(axis=1)
            if cut.any():
                bad = int(np.argmax(cut))
                raise ValueError(f"element {bad} has non-integer vertex "
                                 f"indices {raw[bad].tolist()}")
        finite = np.isfinite(self.vertices)
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=1)))
            raise ValueError(f"vertex {bad} has non-finite coordinates "
                             f"{self.vertices[bad].tolist()}")
        nv = len(self.vertices)
        if self.elements.min() < 0 or self.elements.max() >= nv:
            bad = int(np.argmax(((self.elements < 0) |
                                 (self.elements >= nv)).any(axis=1)))
            raise ValueError(
                f"element {bad} has vertex indices "
                f"{self.elements[bad].tolist()} outside [0, {nv})")
        # row r is local edge r // ne of element r % ne, from a to b
        a = self.elements.T.ravel()
        b = a.reshape(3, -1)[[1, 2, 0]].ravel()
        x, y = self.vertices.T
        dx, dy = x[b] - x[a], y[b] - y[a]
        # edge 2 runs from v2 to v0: twice the signed area is
        # (v1 - v0) x (v2 - v0) = d0_y d2_x - d0_x d2_y
        (d0x, _, d2x), (d0y, _, d2y) = dx.reshape(3, -1), dy.reshape(3, -1)
        signed = d0y * d2x - d0x * d2y
        if np.any(signed <= 0):
            bad = int(np.argmax(signed <= 0))
            raise ValueError(f"element {bad} is not counter-clockwise")
        self.uniform_n = uniform_n
        self._build_faces(a, b)
        # sqrt is monotone and correctly rounded: the root of the largest
        # squared edge is the largest edge length
        self.h_max = float(np.sqrt((dx * dx + dy * dy).max()))

    def _build_faces(self, a, b):
        ne, nv = len(self.elements), len(self.vertices)
        # lo * nv + hi sorts like the vertex pair (lo, hi); the stable sort
        # keeps a face's rows in (local edge, element) order
        key = np.minimum(a, b) * nv + np.maximum(a, b)
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        counts = np.diff(first, append=len(key))
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: a face has > 2 elements")
        two = counts == 2
        r0 = order[first]
        r1 = order[first + two]
        l0, l1 = r0 // ne, r1 // ne
        e0, e1 = r0 - l0 * ne, r1 - l1 * ne
        # the owner, the lower element index, defines the orientation
        swap = e1 < e0
        own = np.where(swap, r1, r0)
        self.faces = np.column_stack([a[own], b[own]])
        self.face_elements = np.column_stack(
            [np.minimum(e0, e1), np.where(two, np.maximum(e0, e1), -1)])
        loc = np.where(swap, l1, l0)
        self.face_local = np.column_stack(
            [loc, np.where(two, l0 + l1 - loc, -1)])
        self.boundary = ~two
        # counter-clockwise neighbours traverse their face in opposite
        # directions; the same direction means the elements overlap
        same = two & (a[r0] == a[r1])
        if same.any():
            f = int(np.argmax(same))
            raise ValueError(
                "elements {} and {} overlap: both traverse edge ({}, {}) the "
                "same way".format(*self.face_elements[f], *self.faces[f]))
        ids = np.arange(len(first))
        elem_faces = np.empty(3 * ne, dtype=np.int64)
        elem_faces[3 * e0 + l0] = ids
        elem_faces[3 * e1 + l1] = ids
        self.elem_faces = elem_faces.reshape(ne, 3)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_interior_faces(self):
        return int((~self.boundary).sum())


# the two triangles of a grid cell, lower one first, as the (x, y) grid
# offsets of their corners from the cell's lower-left vertex
_CELL = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])


def build_uniform_square_mesh(n):
    """Uniform triangulation of [0, 1]^2 with n subdivisions per side.

    Each grid cell is split into two triangles along its lower-left to
    upper-right diagonal, giving 2 n^2 elements and h_max = sqrt(2)/n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    coords = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(coords, coords)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # ll[iy, ix] is the lower-left vertex of cell (ix, iy); vertex (i, j)
    # of the grid is number j (n + 1) + i
    ll = np.arange(n)[:, None] * (n + 1) + np.arange(n)
    elements = (ll[:, :, None, None] + _CELL @ [1, n + 1]).reshape(-1, 3)
    return Mesh(vertices, elements, uniform_n=n)


def uniform_grid_points(n, ref):
    """The points of reference points ref (npts, 2) on the elements of
    `build_uniform_square_mesh(n)`, without the mesh: x (n, 2, npts) of
    the cells of each column ix, and y (n, 2, npts) of each row iy.

    A corner's x depends only on the cell's column and its y only on the
    row, so `element_points` of the diagonal cells (i, i) gives every
    point bitwise: element 2 (iy n + ix) + l maps point p to
    (x[ix, l, p], y[iy, l, p]).
    """
    coords = np.linspace(0.0, 1.0, n + 1)
    corners = coords[np.arange(n)[:, None, None, None] + _CELL]
    x, y = element_points(corners.reshape(2 * n, 3, 2), ref)
    return x.reshape(n, 2, -1), y.reshape(n, 2, -1)


def element_points(corners, ref):
    """Physical x and y, each (ne, npts), of reference points ref (npts, 2)
    on the elements with corners (ne, 3, 2).

    Per coordinate c: (v1 - v0)[c] r0, plus (v2 - v0)[c] r1, plus v0[c].
    A product per column, not matmul: a BLAS kernel may fuse the
    multiply-add and round non-dyadic points differently.
    """
    v0 = corners[:, 0]
    out = []
    for c in range(2):
        X = (corners[:, 1, c] - v0[:, c])[:, None] * ref[:, 0]
        X += (corners[:, 2, c] - v0[:, c])[:, None] * ref[:, 1]
        X += v0[:, c, None]
        out.append(X)
    return out


class BatchedGeometry:
    """Affine map data of all elements, indexed by element first.

    inv is the inverse of the map's matrix B, whose columns are the edge
    vectors from vertex 0, and det = det B = 2 * area; normals[:, i] is
    the outward unit normal of local face i.
    """

    def __init__(self, mesh):
        # two 1-D gathers: several times faster than vertices[elements]
        x, y = mesh.vertices.T
        v = self.corners = np.stack(
            [x[mesh.elements], y[mesh.elements]], axis=-1)
        B = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        self.det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        inv = np.empty_like(B)
        inv[:, 0, 0] = B[:, 1, 1]
        inv[:, 0, 1] = -B[:, 0, 1]
        inv[:, 1, 0] = -B[:, 1, 0]
        inv[:, 1, 1] = B[:, 0, 0]
        inv /= self.det[:, None, None]
        self.inv = inv
        self.inv_t = np.swapaxes(inv, 1, 2)
        tang = np.stack([v[:, (i + 1) % 3] - v[:, i] for i in range(3)], axis=1)
        self.edge_lengths = np.sqrt((tang ** 2).sum(-1))
        # CCW element: outward normal is the tangent rotated clockwise
        self.normals = np.stack(
            [tang[..., 1], -tang[..., 0]], axis=-1
        ) / self.edge_lengths[..., None]

    def points(self, ref):
        """Physical points (ne, npts, 2) of reference points ref (npts, 2)
        on every element."""
        return np.stack(element_points(self.corners, ref), axis=-1)


def write_mesh_text(mesh, path):
    """Write the plain-text mesh format: "nv ne nf" header, "x y" vertex
    lines, "v0 v1 v2" element lines, "v0 v1 b" face lines (b = boundary)."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_elements} {mesh.n_faces}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for a, b, c in mesh.elements:
            fh.write(f"{a} {b} {c}\n")
        for (a, b), bnd in zip(mesh.faces, mesh.boundary):
            fh.write(f"{a} {b} {int(bnd)}\n")


def read_mesh_text(path):
    """Read the plain-text mesh format; validates the declared face list.

    A malformed file fails with a ValueError that names it.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        return _mesh_from_tokens(tokens)
    except ValueError as exc:
        raise ValueError(f"mesh file {path}: {exc}") from None


def _mesh_from_tokens(tokens):
    it = iter(tokens)

    def read(convert, what):
        text = next(it, None)
        if text is None:
            raise ValueError(f"truncated in {what}")
        try:
            return convert(text)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise ValueError(f"{what}: {text!r} is not {kind}") from None

    nv, ne, nf = (read(int, "the header") for _ in range(3))
    vertices = [[read(float, f"vertex {i}") for _ in range(2)]
                for i in range(nv)]
    elements = [[read(int, f"element {i}") for _ in range(3)]
                for i in range(ne)]
    declared = [[read(int, f"face {i}") for _ in range(3)]
                for i in range(nf)]
    extra = sum(1 for _ in it)
    if extra:
        raise ValueError(f"{extra} token(s) after the declared {nv} "
                         f"vertices, {ne} elements and {nf} faces")
    mesh = Mesh(np.reshape(vertices, (nv, 2)), np.reshape(elements, (ne, 3)))
    if mesh.n_faces != nf:
        raise ValueError(
            f"declares {nf} faces, connectivity builds {mesh.n_faces}")
    key = {tuple(sorted(f)): bool(b) for *f, b in declared}
    for f, bnd in zip(mesh.faces.tolist(), mesh.boundary):
        want = key.get(tuple(sorted(f)))
        if want is None:
            raise ValueError(f"face {tuple(f)} missing from the face list")
        if want != bool(bnd):
            raise ValueError(f"face {tuple(f)} has wrong boundary flag")
    return mesh
