"""Quiver-and-relations presentations of endomorphism algebras.

The endomorphism algebra of a module with pairwise non-isomorphic
indecomposable summands is basic, so it is presented by its own quiver:
one vertex per summand, one arrow per basis vector of rad/rad^2 in each
Peirce block.  End(M), M = direct_sum(X_1, ..., X_r), is built in
BlockView's blocks Hom(X_u, X_v).  For pairwise non-isomorphic X_u with
End(X_u)/rad = K, its radical is every block off the diagonal and
rad End(X_u) on it (Auslander-Reiten-Smalo, I-II).  The idempotent of
X_k is the identity of block (k, k), a path from u to w is its (u, w)
block at every vertex, and a path times an arrow is a product of small
blocks.  Stored paths are independent and each lies in one Peirce
block, so one SpanSolver per block gives the same coordinates as one
over all of them.

The path search runs breadth-first over the products p*a of stored
paths p and arrows a, each level in lex order.  It stores p*a when it is
independent of the stored paths, all before it in length-then-lex
order, and records the relation p*a - row(p, a) otherwise, row(p, a)
its coordinates over them.  A path not stored is a combination of
earlier paths, and so is each extension of it, so the stored paths are
the paths independent of all paths before them: the normal words of
the relations' ideal I under algebra's sweep order, in that order, and
closed under prefixes and suffixes.  The rows, and the unit row of each
stored p*a, are B's table, with no sweep: every stored path times every
arrow from its target is stored or carries a relation, so by induction
on length every path is congruent modulo I to a combination of stored
paths and dim KQ/I <= dim End(M); the relations vanish in End(M), whose
basis the stored paths are, so KQ/I = End(M), and the table is its
product in coordinates, associative and the one build_algebra would
certify.  The path dictionary is built on first read.
"""

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    _ZERO_ROW,
    PresentedAlgebra,
    Vec,
    _radical_dims,
    _stabilize,
    _validate_relations,
    build_dimension_only,
)
from .endos import BlockView, EndStructure, _flat, decompose
from .errors import (
    DimensionMismatchError,
    IncompletePresentationWarning,
    NotFiniteDimensionalError,
)
from .linalg import Matrix, ONE, SpanSolver, extend_independent, rat, row_space_basis
from .modules import ModuleHom, Representation, direct_sum, hom_basis
from .quiver import Path, PathAlgElement, Quiver


@dataclass
class EndPresentation:
    """Presentation of End(module), module = direct_sum(summands).

    Vertex k of the quiver corresponds to summands[k]; the path
    dictionary sends every stored path (trivial paths included) to the
    endomorphism of module it denotes, built on first read from the
    paths' block coordinates.  end_dim is dim End(module).  presented is
    the algebra of the quiver and relations with the search's table (see
    the module docstring); it is None when the search was cut off
    (incomplete = True).
    """

    quiver: Quiver
    relations: List[PathAlgElement]
    adjacency: List[List[int]]
    summands: List[Representation]
    module: Representation
    raw_relation_count: int
    presented: Optional[PresentedAlgebra]
    incomplete: bool
    end_dim: int
    # the stored paths, each with its flattened Peirce block in view
    _view: BlockView = field(repr=False, compare=False)
    _stored: List[Tuple[Path, List]] = field(repr=False, compare=False)

    @cached_property
    def path_dictionary(self) -> Dict[Path, ModuleHom]:
        view = self._view
        return {p: view.hom_from_block_flat(p.source, p.target, flat) for p, flat in self._stored}


# seed is read by nothing: perfbench/workloads.py passes it, and it goes
# with the benchmark change of ROADMAP item 1
def end_as_quiver_algebra(m: Representation, max_length: int = 20, seed: int = 0) -> EndPresentation:
    """Present End(m) by end_of_summands over the indecomposable summands
    that decompose(m) finds: the presentation's module is their direct
    sum, isomorphic to m, and non-basic m is refused there."""
    return end_of_summands([s.rep for s in decompose(m)], max_length)


def end_of_summands(summands: Sequence[Representation], max_length: int = 20) -> EndPresentation:
    """Present End(M), M = direct_sum(summands), with vertex k for
    summands[k].

    Each hom_basis(X_u, M) is cut into the blocks Hom(X_u, X_v).  The
    summands must be indecomposables with End/rad = K, which the trace
    form of each End(X_u) decides, and pairwise non-isomorphic, which
    Fitting's argument (modules._indecomposable_iso) decides on the
    block basis of Hom(X_u, X_v) when the dimension vectors agree;
    DimensionMismatchError is raised otherwise, and ValueError for no or
    a zero summand.  Paths longer than max_length are not explored; if
    any were still alive the result is flagged incomplete and no rebuilt
    algebra is attached.
    """
    for k, x in enumerate(summands):
        if x.is_zero():
            raise ValueError("summand %d is zero" % k)
    view = BlockView(direct_sum(summands), summands)
    return _present(view, *_radical_blocks(view), max_length)


def _radical_blocks(view: BlockView) -> Tuple[Dict[Tuple[int, int], Matrix], int]:
    """The canonical spans (row_space_basis) of the nonzero blocks of rad
    End(M), M = view.module, and dim End(M), from one hom_basis(X_u, M)
    per summand X_u; DimensionMismatchError unless the summands are basic
    indecomposables, as end_of_summands says."""
    m, summands = view.module, view.summands
    flats: Dict[Tuple[int, int], List] = {}
    end_dim = 0
    for u, x in enumerate(summands):
        homs = hom_basis(x, m)
        end_dim += len(homs)
        for h in homs:
            for key, flat in view.block_flats(u, h.vertex_maps).items():
                flats.setdefault(key, []).append(flat)
    blocks = {
        key: row_space_basis(Matrix._from_pairs(len(rows), view._block_width(*key), rows))
        for key, rows in flats.items()
    }
    # every block off the diagonal is radical, and rad End(X_u) on it
    rad = {key: span for key, span in blocks.items() if key[0] != key[1]}
    for u, x in enumerate(summands):
        E = EndStructure(x, [ModuleHom(x, x, view._block_mats(u, u, f)) for f in blocks[u, u].pairs])
        if E.dim - E.radical_coords.nrows != 1:
            raise DimensionMismatchError(
                "End(summand %d)/rad has dimension %d: a summand is decomposable or has "
                "End/rad larger than K" % (u, E.dim - E.radical_coords.nrows)
            )
        if E.radical_coords.nrows:
            rad[u, u] = row_space_basis(E.radical_coords @ blocks[u, u])
    for (u, v), span in blocks.items():
        x, y = summands[u], summands[v]
        if u < v and x.dims == y.dims:
            if any(ModuleHom(x, y, view._block_mats(u, v, f)).is_isomorphism() for f in span.pairs):
                raise DimensionMismatchError("summand %d is isomorphic to another, summand %d" % (u, v))
    return rad, end_dim


def _present(view: BlockView, rad_blocks: Dict, end_dim: int, max_length: int) -> EndPresentation:
    """The presentation of End(view.module), of dimension end_dim, whose
    radical has the canonical block spans rad_blocks."""
    nb = len(view.summands)
    radsq_blocks = view.block_span_products(rad_blocks, rad_blocks)

    # each arrow as its block (u, v) and that block's matrices at every vertex
    arrow_specs: List[Tuple[int, int, List[Matrix]]] = []
    for (u, v), cand in sorted(rad_blocks.items()):
        for i in extend_independent(radsq_blocks.get((u, v), Matrix(0, cand.ncols)), cand):
            arrow_specs.append((u, v, view._block_mats(u, v, cand.pairs[i])))
    adjacency = [[0] * nb for _ in range(nb)]
    for u, v, _h in arrow_specs:
        adjacency[u][v] += 1

    vertex_names = ["m%d" % (k + 1) for k in range(nb)]
    quiver = Quiver(
        vertex_names,
        [
            ("x%d" % (i + 1), vertex_names[u], vertex_names[v])
            for i, (u, v, _h) in enumerate(arrow_specs)
        ],
    )

    # one solver per Peirce block, with the stored index of each of its rows
    blocks = [(u, v) for u in range(nb) for v in range(nb)]
    solvers = {key: (SpanSolver(view._block_width(*key)), []) for key in blocks}
    stored: List[Tuple[Path, List]] = []  # each path with its block flat
    # table[k][i]: stored path k times arrow i over the stored paths
    table: List[List[Vec]] = []

    def search(path: Path, mats: List[Matrix]) -> Vec:
        """path's coordinates over the stored paths; its unit row when it
        is independent of them, as it is then stored."""
        solver, index = solvers[path.source, path.target]
        flat = _flat(mats)
        coords = solver.coords_or_insert(dict(flat))
        if coords is None:
            index.append(len(stored))
            stored.append((path, flat))
            table.append([_ZERO_ROW] * len(arrow_specs))
            return {len(stored) - 1: ONE}
        return {index[j]: rat(c) for j, c in enumerate(coords) if c}

    # the idempotent of summand k is its identity block
    for k, x in enumerate(view.summands):
        search(quiver.trivial_path(k), [Matrix.identity(d) for d in x.dims])
    queue: deque = deque()
    for i, (u, v, mats) in enumerate(arrow_specs):
        entry = (len(stored), Path(u, (i,), v), mats)
        table[u][i] = search(*entry[1:])
        queue.append(entry)

    n_seeds = len(stored)
    assert n_seeds == nb + len(arrow_specs)  # idempotents and arrows are independent
    relations: List[PathAlgElement] = []
    incomplete = False
    while queue:
        k, p, pmats = queue.popleft()
        if p.length >= max_length:
            incomplete = True
            continue
        for i, (u, v, amats) in enumerate(arrow_specs):
            if u != p.target:
                continue
            path = Path(p.source, p.arrows + (i,), v)
            entry = (len(stored), path, [x @ y for x, y in zip(pmats, amats)])
            row = table[k][i] = search(*entry[1:])
            if len(stored) > entry[0]:
                queue.append(entry)
            else:
                # a product of radical endomorphisms lies in rad^2, so
                # its expansion cannot touch idempotents or arrows
                assert all(j >= n_seeds for j in row)
                terms = [(entry[1], ONE)] + [(stored[j][0], -c) for j, c in row.items()]
                relations.append(PathAlgElement(quiver, dict(terms)))

    presented = None
    if incomplete:
        warnings.warn(
            IncompletePresentationWarning(
                "path search stopped at length %d with the span still open"
                % max_length
            )
        )
    else:
        if len(stored) != end_dim:
            raise DimensionMismatchError(
                "stored paths span dimension %d but End has dimension %d"
                % (len(stored), end_dim)
            )
        presented = PresentedAlgebra(quiver, [path for path, _flat in stored], table)
        presented.relations = relations
        # normal words are closed under suffixes, as the opposite needs
        pos, arrows = presented._pos, quiver.arrows
        assert all((arrows[p.arrows[0]].target, p.arrows[1:]) in pos for p in presented.basis[nb:])
        dims = _radical_dims(presented)
        assert dims is not None  # End(M)'s product, with its radical nilpotent
        presented.loewy_length = len(dims) + 1
    return EndPresentation(
        quiver=quiver,
        relations=relations,
        adjacency=adjacency,
        summands=view.summands,
        module=view.module,
        raw_relation_count=len(relations),
        presented=presented,
        incomplete=incomplete,
        end_dim=end_dim,
        _view=view,
        _stored=stored,
    )


def path_endomorphism(pres: EndPresentation, path: Path) -> ModuleHom:
    """Evaluate a path of the presentation quiver in End(m)."""
    if path.length == 0:
        return pres.path_dictionary[path]
    h: Optional[ModuleHom] = None
    for ai in path.arrows:
        ar = pres.quiver.arrows[ai]
        ha = pres.path_dictionary[Path(ar.source, (ai,), ar.target)]
        h = ha if h is None else h * ha
    return h


def presentation_dimension_check(
    quiver: Quiver,
    relations: List[PathAlgElement],
    expected: int,
    length_cap: int = 20,
) -> Optional[bool]:
    """True when the presented algebra has exactly the expected dimension,
    None when the sweep reaches length_cap without stabilizing."""
    try:
        dim = build_dimension_only(quiver, relations, length_cap=length_cap)
    except NotFiniteDimensionalError:
        return None
    return dim == expected


def minimize_relations(
    quiver: Quiver,
    relations: List[PathAlgElement],
    reference_dim: int,
    length_cap: int = 20,
) -> List[PathAlgElement]:
    """Drop relations that lie in the ideal of the kept ones, in one sweep.

    The quotient sweep runs once over all relations, each entering at
    the level of its longest term.  Every row it imposes lies in the
    ideal of the relations fed so far, so a relation whose row reduces
    to zero, or one never fed, lies in the ideal of the kept ones, which
    present the same algebra.  A kept relation may still lie in the
    ideal of relations fed after it; the Ext^2 total of the simples
    (cluster_tilting_verdict's ext2_simples_total) bounds every
    generating set from below.  verify-paper reads the kept set here.

    Returns the kept relations in input order.  Raises
    DimensionMismatchError when the certified dimension is not
    reference_dim, and returns the input unchanged when the sweep does
    not stabilize by length_cap.
    """
    try:
        alg = _stabilize(quiver, _validate_relations(quiver, relations), length_cap)[1]
    except NotFiniteDimensionalError:
        return list(relations)
    if alg.dim != reference_dim:
        raise DimensionMismatchError(
            "relations present dimension %d, expected %d" % (alg.dim, reference_dim)
        )
    return alg.kept_relations

