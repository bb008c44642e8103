"""Quiver-and-relations presentations of endomorphism algebras.

The endomorphism algebra of a module with pairwise non-isomorphic
indecomposable summands is basic, so it is presented by its own quiver:
one vertex per summand, one arrow per basis vector of rad/rad^2 in each
Peirce block.  A breadth-first sweep over products of stored paths with
arrows records a relation whenever a product lands in the span of what
is already stored; those relations present the algebra exactly.
"""

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebra import (
    PresentedAlgebra,
    _stabilize,
    _validate_relations,
    build_algebra,
    build_dimension_only,
)
from .endos import BlockView, EndStructure, Summand, _hom_flat, decompose
from .errors import (
    DimensionMismatchError,
    IncompletePresentationWarning,
    NotFiniteDimensionalError,
)
from .linalg import Matrix, ONE, SpanSolver, extend_independent
from .modules import ModuleHom, Representation
from .quiver import Path, PathAlgElement, Quiver


@dataclass
class EndPresentation:
    """Presentation of End(m) with the data used to build it.

    Vertex k of the quiver corresponds to vertex_summands[k]; the path
    dictionary sends every stored path (trivial paths included) to the
    endomorphism it denotes.  presented is the algebra rebuilt from the
    quiver and relations, with its dimension checked against dim End;
    it is None when the search was cut off (incomplete = True).
    """

    quiver: Quiver
    relations: List[PathAlgElement]
    adjacency: List[List[int]]
    vertex_summands: List[Summand]
    path_dictionary: Dict[Path, ModuleHom]
    raw_relation_count: int
    presented: Optional[PresentedAlgebra]
    incomplete: bool


def end_as_quiver_algebra(
    m: Representation,
    max_length: int = 20,
    seed: int = 0,
    structure: Optional[EndStructure] = None,
) -> EndPresentation:
    """Present End(m) by quiver and relations.

    Requires the indecomposable summands of m to be pairwise
    non-isomorphic (a basic endomorphism algebra); otherwise the rebuilt
    dimension cannot match and DimensionMismatchError is raised.  Paths
    longer than max_length are not explored; if any were still alive the
    result is flagged incomplete and no rebuilt algebra is attached.
    """
    E = structure if structure is not None else EndStructure(m)
    summands = decompose(m, seed=seed, structure=E)
    nb = len(summands)
    view = BlockView(m, summands)
    rad_blocks = view.radical_block_spans(E)
    radsq_blocks = view.block_span_products(rad_blocks, rad_blocks)

    arrow_specs: List[Tuple[int, int, ModuleHom]] = []
    for u in range(nb):
        for v in range(nb):
            cand = rad_blocks.get((u, v))
            if cand is None:
                continue
            base = radsq_blocks.get((u, v))
            if base is None:
                base = Matrix(0, cand.ncols)
            for i in extend_independent(base, cand):
                arrow_specs.append((u, v, view.hom_from_block_flat(u, v, cand.rows[i])))
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

    ncoord = sum(d * d for d in m.dims)
    solver = SpanSolver(ncoord)
    stored: List[Tuple[Path, ModuleHom]] = []
    for k in range(nb):
        h = summands[k].idempotent
        assert solver.insert(_hom_flat(h))
        stored.append((quiver.trivial_path(k), h))
    queue: deque = deque()
    for i, (u, v, h) in enumerate(arrow_specs):
        assert solver.insert(_hom_flat(h))
        entry = (Path(u, (i,), v), h)
        stored.append(entry)
        queue.append(entry)

    n_seeds = len(stored)
    relations: List[PathAlgElement] = []
    incomplete = False
    while queue:
        p, hp = queue.popleft()
        if p.length >= max_length:
            incomplete = True
            continue
        for i, (u, v, ha) in enumerate(arrow_specs):
            if u != p.target:
                continue
            newp = Path(p.source, p.arrows + (i,), v)
            h = hp * ha
            coords = solver.coords_or_insert(_hom_flat(h))
            if coords is None:
                entry = (newp, h)
                stored.append(entry)
                queue.append(entry)
            else:
                # a product of radical endomorphisms lies in rad^2, so
                # its expansion cannot touch idempotents or arrows
                assert all(c == 0 for c in coords[:n_seeds])
                terms = {newp: ONE}
                for j, c in enumerate(coords):
                    if c:
                        terms[stored[j][0]] = -c
                relations.append(PathAlgElement(quiver, terms))

    presented = None
    if incomplete:
        warnings.warn(
            IncompletePresentationWarning(
                "path search stopped at length %d with the span still open"
                % max_length
            )
        )
    else:
        if len(stored) != E.dim:
            raise DimensionMismatchError(
                "stored paths span dimension %d but End has dimension %d"
                % (len(stored), E.dim)
            )
        presented = build_algebra(quiver, relations, length_cap=max_length)
        if presented.dim != E.dim:
            raise DimensionMismatchError(
                "rebuilt algebra has dimension %d, expected %d"
                % (presented.dim, E.dim)
            )
    return EndPresentation(
        quiver=quiver,
        relations=relations,
        adjacency=adjacency,
        vertex_summands=summands,
        path_dictionary=dict(stored),
        raw_relation_count=len(relations),
        presented=presented,
        incomplete=incomplete,
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


def element_endomorphism(pres: EndPresentation, element: PathAlgElement) -> ModuleHom:
    """Evaluate a path-algebra element of the presentation quiver."""
    m = pres.vertex_summands[0].idempotent.source
    acc = ModuleHom.zero(m, m)
    for path, coeff in element.sorted_terms():
        acc = acc + path_endomorphism(pres, path).scale(coeff)
    return acc


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
    the level of its longest term.  Every row the sweep imposes lies in
    the ideal of the relations fed so far, so a relation whose row
    reduces to zero lies in the ideal of those fed before it, and one
    never fed lies in the ideal of the fed ones; by induction every
    dropped relation lies in the ideal generated by the kept ones, which
    therefore present the same algebra.  The kept set is not guaranteed
    minimal: a kept relation may lie in the ideal of relations fed after
    it.  ext2_simples_total bounds every generating set from below.

    Returns the kept relations in input order.  Raises
    DimensionMismatchError when the certified dimension is not
    reference_dim, and returns the input unchanged when the sweep does
    not stabilize by length_cap.
    """
    valid = _validate_relations(quiver, relations)
    try:
        eng, alg = _stabilize(quiver, valid, length_cap)
    except NotFiniteDimensionalError:
        return list(relations)
    if alg.dim != reference_dim:
        raise DimensionMismatchError(
            "relations present dimension %d, expected %d" % (alg.dim, reference_dim)
        )
    return [valid[i] for i in sorted(eng.kept)]


def ext2_simples_total(
    quiver: Quiver,
    relations: List[PathAlgElement],
    dim: int,
    length_cap: int = 20,
) -> Optional[int]:
    """dim I/(IJ+JI) for the ideal I of the relations and the arrow ideal J,
    None when KQ/(IJ+JI) does not stabilize by length_cap.

    dim is the dimension of KQ/I.  IJ+JI is the ideal generated by g*a
    and a*g for every relation g and composable arrow a, so one sweep
    gives its codimension.  For an admissible I the result is the sum of
    dim Ext^2(S_i, S_j) over all pairs of simples (Bongartz, 1983), and
    no generating set of I has fewer elements.
    """
    arrows = [
        PathAlgElement.from_path(quiver, Path(a.source, (a.index,), a.target))
        for a in quiver.arrows
    ]
    products = []
    for g in _validate_relations(quiver, relations):
        source, target = g.uniform_endpoints()
        products += [g * arrows[a.index] for a in quiver.out_arrows[target]]
        products += [arrows[a.index] * g for a in quiver.in_arrows[source]]
    try:
        return build_dimension_only(quiver, products, length_cap=length_cap) - dim
    except NotFiniteDimensionalError:
        return None
