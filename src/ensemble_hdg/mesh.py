"""Conforming triangular meshes of the unit square with face connectivity.

A mesh stores vertices, counter-clockwise elements, a canonical face list and
the element/face adjacency needed by hybrid methods: every interior face knows
its two incident elements, every boundary face its single one.  Meshes are
immutable after construction and safe for concurrent reads: nothing is
cached on them.  `BatchedGeometry` holds the element maps.  `element_points`
is the one map of reference points to physical ones: it works per
coordinate on the corners of any set of elements, a whole mesh or a block
of one, so a caller that only reads points needs no geometry.
"""

import numpy as np

_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


class Mesh:
    """Triangulation with face connectivity and boundary classification.

    Attributes
    ----------
    vertices : (nv, 2) float array
    elements : (ne, 3) int array
        Vertex indices, counter-clockwise.
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
        self.elements = np.ascontiguousarray(elements, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be (nv, 2)")
        if self.elements.ndim != 2 or self.elements.shape[1] != 3:
            raise ValueError("elements must be (ne, 3)")
        if len(self.elements) == 0:
            raise ValueError("mesh has no elements")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"vertex {bad} has non-finite coordinates "
                             f"{self.vertices[bad].tolist()}")
        nv = len(self.vertices)
        outside = (self.elements < 0) | (self.elements >= nv)
        if outside.any():
            bad = int(np.argmax(outside.any(axis=1)))
            raise ValueError(
                f"element {bad} has vertex indices "
                f"{self.elements[bad].tolist()} outside [0, {nv})")
        v = self.vertices[self.elements]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        signed = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(signed <= 0):
            bad = int(np.argmax(signed <= 0))
            raise ValueError(f"element {bad} is not counter-clockwise")
        self.uniform_n = uniform_n
        self._build_faces()
        edges = v - np.roll(v, -1, axis=1)
        self.h_max = float(np.sqrt((edges ** 2).sum(-1)).max())

    def _build_faces(self):
        ne, nv = len(self.elements), len(self.vertices)
        # row r is local edge r // ne of element r % ne
        pairs = np.concatenate(
            [self.elements[:, e] for e in _LOCAL_EDGES], axis=0
        )
        # lo * nv + hi sorts like the vertex pair (lo, hi); the stable sort
        # keeps a face's rows in (local edge, element) order, so its first
        # owner is its smallest (local edge, element) pair
        key = pairs.min(axis=1) * nv + pairs.max(axis=1)
        order = np.argsort(key, kind="stable")
        starts = np.diff(key[order], prepend=-1) != 0
        first = np.flatnonzero(starts)
        counts = np.diff(first, append=len(key))
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: a face has > 2 elements")
        two = counts == 2

        rows = np.full((len(first), 2), -1, dtype=np.int64)
        rows[:, 0] = order[first]
        rows[two, 1] = order[first[two] + 1]
        face_elements = np.where(rows >= 0, rows % ne, -1)
        face_local = np.where(rows >= 0, rows // ne, -1)
        # owner = lower element index defines the canonical orientation
        swap = two & (face_elements[:, 1] < face_elements[:, 0])
        face_elements[swap] = face_elements[swap][:, ::-1]
        face_local[swap] = face_local[swap][:, ::-1]

        own, loc = face_elements[:, 0], face_local[:, 0]
        a = self.elements[own, loc]
        b = self.elements[own, (loc + 1) % 3]
        self.faces = np.column_stack([a, b])
        self.face_elements = face_elements
        self.face_local = face_local
        self.boundary = counts == 1

        face_of_row = np.empty(len(key), dtype=np.int64)
        face_of_row[order] = np.cumsum(starts) - 1
        self.elem_faces = np.ascontiguousarray(face_of_row.reshape(3, ne).T)

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
    ix, iy = np.meshgrid(np.arange(n), np.arange(n))
    ix, iy = ix.ravel(), iy.ravel()
    ll = iy * (n + 1) + ix
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = lower
    elements[1::2] = upper
    return Mesh(vertices, elements, uniform_n=n)


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
        v = mesh.vertices[mesh.elements]
        self.corners = v
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
