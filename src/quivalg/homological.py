"""Homological invariants: syzygies, translates, Ext, dimensions.

Syzygies, translates, Ext and the bounded dimensions are read off
minimal projective resolutions, kept as rows over the algebra's table
by modules._Resolution, so their terms are minimal by construction;
domdim dualizes the resolution of D(A) over the opposite algebra.
Dimension searches are bounded and return sentinel objects
(ExceedsBound, AtLeastBound) instead of looping forever on
infinite-dimension inputs.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from .algebra import PresentedAlgebra
from .endos import decompose
from .endquiver import EndPresentation, end_of_summands
from .linalg import Matrix, determinant, rank
from .modules import (
    ModuleHom,
    Representation,
    _Resolution,
    _hom_from_generators,
    _indecomposable_iso,
    _induced_hom_matrix,
    _projective_sum,
    _sum_rows,
    cokernel,
    dual,
    indec_injectives,
    indec_projectives,
    is_injective,
    is_projective,
    regular_module,
    simples,
)

DEFAULT_BOUND = 6


class _Bound:
    """A bounded search's answer in place of a value; equal to an
    instance of the same sentinel class with the same bound."""

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and other.bound == self.bound

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.bound))

    def __repr__(self) -> str:
        return "%s(%d)" % (type(self).__name__, self.bound)


class ExceedsBound(_Bound):
    """Sentinel: the true value is strictly greater than `bound`."""

    __slots__ = ()


class AtLeastBound(_Bound):
    """Sentinel: the true value is at least `bound` (possibly infinite)."""

    __slots__ = ()


# -- minimal resolutions ------------------------------------------------


def syzygy(m: Representation, k: int) -> Representation:
    """k-th syzygy of m along minimal covers; k = 0 returns m itself."""
    if k < 0:
        raise ValueError("syzygy index must be nonnegative")
    return _Resolution(m).syzygy(k)


# -- transpose and translates -------------------------------------------


def transpose(m: Representation) -> Representation:
    """Transpose over the opposite algebra; zero when m is projective.

    Applies Hom(-, algebra) to a minimal presentation d: P1 -> P0 and
    returns the cokernel of the induced map between the corresponding
    projectives over the opposite algebra.  Basis positions are shared
    between an algebra and its opposite (reversal keeps indices), and so
    is each one's index in the basis paths between its end vertices: a
    generator row's entry at (s, pos) transfers with no other translation.
    """
    res = _Resolution(m)
    a, op = m.algebra, m.algebra.opposite
    src, tgt = res.vertices(0), res.vertices(1)
    at = [{key: i for i, key in enumerate(rows)} for rows in _sum_rows(op, tgt)]
    images: List[List] = [[] for _ in src]
    for t, row in enumerate(res.generator_rows(0)):
        for col, c in row:
            s, pos = divmod(col, a.dim)
            images[s].append((at[src[s]][t, pos], c))
    source, target = _projective_sum(op, src), _projective_sum(op, tgt)
    return cokernel(ModuleHom(source, target, _hom_from_generators(op, src, target, images)))[0]


def ar_translate(m: Representation) -> Representation:
    """Auslander-Reiten translate: dual of the transpose."""
    return dual(transpose(m))


def tau2(m: Representation) -> Representation:
    """Second translate: AR translate of the first syzygy."""
    return ar_translate(syzygy(m, 1))


# -- Ext dimensions -----------------------------------------------------


def ext_dim(m: Representation, n: Representation, i: int) -> int:
    """dim Ext^i(m, n) for i >= 1, computed from a minimal resolution.

    Hom spaces out of resolution terms are kept in generator
    coordinates, so the value is dim Hom(P_i, n) minus the ranks of the
    two adjacent induced maps.
    """
    if i < 1:
        raise ValueError("ext_dim needs i >= 1")
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    res = _Resolution(m)

    def hom_dim(k: int) -> int:
        return sum(n.dims[v] for v in res.vertices(k))

    if hom_dim(i) == 0:
        return 0
    rank_out = rank(_induced_hom_matrix(res, i, n))
    rank_in = rank(_induced_hom_matrix(res, i - 1, n))
    return hom_dim(i) - rank_out - rank_in


# -- bounded dimension searches -----------------------------------------


def projective_dimension(
    m: Representation, bound: int = DEFAULT_BOUND
) -> Union[int, ExceedsBound]:
    """Projective dimension, the first k whose k-th syzygy is projective,
    or ExceedsBound(bound) when it is > bound."""
    return _global_dimension([_Resolution(m)], bound)


def global_dimension(
    a: PresentedAlgebra, bound: int = DEFAULT_BOUND
) -> Union[int, ExceedsBound]:
    """Max projective dimension over the simple modules, bounded search."""
    return _global_dimension([_Resolution(s) for s in simples(a)], bound)


def _global_dimension(
    resolutions: List[_Resolution], bound: int
) -> Union[int, ExceedsBound]:
    """Max projective dimension of the resolved modules, stopping at the
    first one whose first bound + 1 syzygies are not projective."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    best = 0
    for res in resolutions:
        for k in range(bound + 1):
            if res.is_projective(k):
                best = max(best, k)
                break
        else:
            return ExceedsBound(bound)
    return best


def _ext2_total(resolutions: List[_Resolution]) -> int:
    """Sum of dim Ext^2(S_i, S_j) over all simples S_j, for the resolved
    simples S_i: P(j) occurs in degree 2 of the minimal resolution of S_i
    dim Ext^2(S_i, S_j) times.  For a presentation by an admissible ideal
    I with arrow ideal J the total is dim I/(IJ+JI) (Bongartz, 1983), so
    no set of relations presenting the algebra is smaller."""
    return sum(len(res.top(2)) for res in resolutions)


def dominant_dimension(
    a: PresentedAlgebra, bound: int = DEFAULT_BOUND
) -> Union[int, AtLeastBound]:
    """Number of leading projective terms of the minimal injective
    coresolution of the regular module; AtLeastBound(bound) when the
    first bound terms are all projective or the coresolution stops.

    The duality D turns the minimal projective resolution of D(A_A)
    over the opposite algebra into the minimal injective coresolution of
    DD(A_A) = A_A: its term k is the sum of I(v) = D(P(v)) over the
    vertices of the resolution's term k, and it ends at term k when the
    k-th syzygy of D(A_A) is projective.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    projective = [is_projective(i) for i in indec_injectives(a)]
    res = _Resolution(dual(regular_module(a)))
    for k in range(bound):
        if not all(projective[v] for v in res.vertices(k)):
            return k
        if res.is_projective(k):
            break
    return AtLeastBound(bound)


def is_selfinjective(a: PresentedAlgebra) -> bool:
    return is_injective(regular_module(a))


# -- Cartan data --------------------------------------------------------


def cartan_matrix(a: PresentedAlgebra) -> Matrix:
    """Entry (i, j) = dim of the slice of the basis from vertex i to j."""
    nv = a.num_vertices
    rows = [
        [len(a.endpoint_basis(i, j)) for j in range(nv)] for i in range(nv)
    ]
    return Matrix(nv, nv, rows)


def cartan_determinant(a: PresentedAlgebra):
    """Exact rational determinant of the Cartan matrix."""
    return determinant(cartan_matrix(a))


# -- cluster-tilting verdict --------------------------------------------


def is_generator_cogenerator(m: Representation) -> bool:
    """Every indecomposable projective and injective occurs among the
    direct summands of m (up to isomorphism)."""
    return _covers_projectives_injectives(m.algebra, [s.rep for s in decompose(m)])


def _covers_projectives_injectives(a: PresentedAlgebra, parts: Sequence[Representation]) -> bool:
    """Each target P(v) or I(v), with its simple top or socle, is
    indecomposable, so _indecomposable_iso decides it against each part."""
    for target in indec_projectives(a) + indec_injectives(a):
        if not any(_indecomposable_iso(target, p) is not None for p in parts):
            return False
    return True


def _is_connected(quiver) -> bool:
    n = quiver.num_vertices
    if n <= 1:
        return True
    adj: List[set] = [set() for _ in range(n)]
    for ar in quiver.arrows:
        adj[ar.source].add(ar.target)
        adj[ar.target].add(ar.source)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


@dataclass
class ClusterTiltingVerdict:
    """Outcome of the bounded cluster-tilting check for a module.

    is_cluster_tilting is None when the bounded searches or the
    presentation could not settle the answer; conclusive records
    whether it is final.  global_dimension and ext2_simples_total, the
    sum of dim Ext^2(S_i, S_j) over all pairs of simples, are read off
    one minimal resolution per simple of the endomorphism algebra.  The
    endomorphism algebra's invariants are None when its presentation is
    incomplete.
    """

    n: int
    is_cluster_tilting: Optional[bool]
    conclusive: bool
    generator_cogenerator: bool
    global_dimension: Union[int, ExceedsBound, None]
    ext2_simples_total: Optional[int]
    dominant_dimension: Union[int, AtLeastBound, None]
    end_dim: int
    ext_dims: Dict[int, int]
    presentation: EndPresentation

    def __bool__(self) -> bool:
        return self.is_cluster_tilting is True


def _equals_target(value, target: int) -> Optional[bool]:
    """Does a possibly-bounded value equal target?  None = unknown."""
    if isinstance(value, ExceedsBound):
        return False if value.bound >= target else None
    if isinstance(value, AtLeastBound):
        return False if value.bound > target else None
    return value == target


def cluster_tilting_verdict(
    summands: Sequence[Representation],
    n: int,
    bound: int = DEFAULT_BOUND,
    max_length: int = 20,
) -> ClusterTiltingVerdict:
    """Check whether M = direct_sum(summands) is n-cluster-tilting via its
    endomorphism algebra, presented by end_of_summands (vertex k for
    summands[k]; a whole module m is passed as [s.rep for s in decompose(m)]).

    M must live over a connected non-semisimple algebra and n >= 2.
    The verdict is True exactly when M is a generator-cogenerator, the
    endomorphism algebra has global dimension and dominant dimension
    both equal to n + 1, and Ext^i(M, M) = 0 for 0 < i < n.  Bounded
    dimension searches that cannot separate the computed value from
    n + 1 leave the verdict inconclusive, and so does a presentation
    cut off at max_length, unless another condition already fails.
    """
    if not summands:
        raise ValueError("the verdict needs at least one summand")
    a = summands[0].algebra
    if n < 2:
        raise ValueError("cluster-tilting degree must be at least 2")
    if not a.quiver.arrows:
        raise ValueError("base algebra must not be semisimple")
    if not _is_connected(a.quiver):
        raise ValueError("base algebra must have a connected quiver")

    pres = end_of_summands(summands, max_length=max_length)
    m = pres.module
    gen_cog = _covers_projectives_injectives(a, summands)
    ext_dims = {i: ext_dim(m, m, i) for i in range(1, n)}
    settled = [gen_cog, all(d == 0 for d in ext_dims.values())]
    b = pres.presented
    gdim = ext2 = ddim = None
    if b is None:
        settled.append(None)
    else:
        # domdim first, so its coresolution and the simples' resolutions
        # are never held at once
        ddim = dominant_dimension(b, bound)
        resolutions = [_Resolution(s) for s in simples(b)]
        gdim = _global_dimension(resolutions, bound)
        ext2 = _ext2_total(resolutions)
        settled += [_equals_target(gdim, n + 1), _equals_target(ddim, n + 1)]
    if any(ok is False for ok in settled):
        verdict: Optional[bool] = False
    elif any(ok is None for ok in settled):
        verdict = None
    else:
        verdict = True
    return ClusterTiltingVerdict(
        n=n,
        is_cluster_tilting=verdict,
        conclusive=verdict is not None,
        generator_cogenerator=gen_cog,
        global_dimension=gdim,
        ext2_simples_total=ext2,
        dominant_dimension=ddim,
        end_dim=pres.end_dim,
        ext_dims=ext_dims,
        presentation=pres,
    )
