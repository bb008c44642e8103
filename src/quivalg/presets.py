"""Built-in algebras and modules used by the verification pipeline.

Everything here is constructed from explicit quiver and relation data,
so the presets double as parser-independent fixtures.  The reference
presentation below is the frozen eleven-relation description of the
endomorphism algebra targeted by the verification run; rebuilding it
must give dimension 165.
"""

from typing import Callable, Dict, List, Tuple

from .algebra import PresentedAlgebra, build_algebra
from .linalg import QQ
from .quiver import PathAlgElement, Quiver


def _element(quiver: Quiver, *terms: Tuple) -> PathAlgElement:
    out = PathAlgElement(quiver)
    for coeff, *labels in terms:
        out = out + PathAlgElement.from_path(quiver, quiver.path(list(labels)), coeff)
    return out


def two_loop_quiver() -> Quiver:
    return Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])


def two_loop_relations(quiver: Quiver) -> List[PathAlgElement]:
    """a^2 and ab + b^2 + b^2a."""
    return [
        _element(quiver, (1, "a", "a")),
        _element(quiver, (1, "a", "b"), (1, "b", "b"), (1, "b", "b", "a")),
    ]


def two_loop_local_algebra(length_cap: int = 20) -> PresentedAlgebra:
    """The six-dimensional local algebra with two loops a, b modulo
    a^2 and ab + b^2 + b^2a."""
    q = two_loop_quiver()
    return build_algebra(q, two_loop_relations(q), length_cap=length_cap)


def reference_end_quiver() -> Quiver:
    """Five-vertex quiver of the reference endomorphism presentation."""
    return Quiver(
        ["v1", "v2", "v3", "v4", "v5"],
        [
            ("a10", "v1", "v2"),
            ("a9", "v1", "v4"),
            ("a8", "v2", "v3"),
            ("a7", "v2", "v5"),
            ("a6", "v3", "v4"),
            ("a4", "v4", "v1"),
            ("a5", "v4", "v1"),
            ("a3", "v4", "v5"),
            ("a1", "v5", "v2"),
            ("a2", "v5", "v2"),
        ],
    )


def reference_end_relations(quiver: Quiver) -> List[PathAlgElement]:
    """The frozen eleven relations presenting the 165-dimensional
    endomorphism algebra on the five-vertex quiver."""
    e = _element
    q = quiver
    return [
        e(q, (1, "a6", "a5")),
        e(q, (1, "a2", "a8")),
        e(
            q,
            (-1, "a9", "a4"),
            (-1, "a10", "a8", "a6", "a4"),
            (1, "a9", "a4", "a9", "a5"),
        ),
        e(
            q,
            (1, "a1", "a7"),
            (1, "a1", "a8", "a6", "a3"),
            (1, "a1", "a7", "a1", "a7"),
            (2, "a1", "a7", "a2", "a7"),
            (1, "a2", "a7", "a1", "a7"),
        ),
        e(
            q,
            (-1, "a7", "a1", "a7"),
            (QQ(-1, 2), "a8", "a6", "a4", "a9", "a3"),
            (-1, "a7", "a1", "a8", "a6", "a3"),
            (1, "a7", "a1", "a7", "a1", "a7"),
        ),
        e(q, (1, "a9", "a3"), (1, "a10", "a8", "a6", "a3", "a2", "a7")),
        e(
            q,
            (-1, "a10", "a7"),
            (-1, "a10", "a7", "a2", "a7"),
            (1, "a9", "a5", "a10", "a8", "a6", "a3"),
        ),
        e(
            q,
            (-1, "a7", "a2"),
            (1, "a8", "a6", "a3", "a1"),
            (1, "a8", "a6", "a4", "a9", "a5", "a10"),
        ),
        e(
            q,
            (1, "a6", "a3", "a1", "a8"),
            (1, "a6", "a4", "a9", "a5", "a10", "a8"),
        ),
        e(
            q,
            (-1, "a5", "a9"),
            (1, "a3", "a1", "a8", "a6"),
            (1, "a4", "a9", "a5", "a10", "a8", "a6"),
        ),
        e(
            q,
            (1, "a4", "a10"),
            (-1, "a3", "a1"),
            (-1, "a3", "a2", "a7", "a1"),
            (1, "a5", "a10", "a8", "a6", "a3", "a2"),
        ),
    ]


def reference_end_algebra(length_cap: int = 20) -> PresentedAlgebra:
    q = reference_end_quiver()
    return build_algebra(q, reference_end_relations(q), length_cap=length_cap)


BUILTIN_ALGEBRAS: Dict[str, Callable[[int], PresentedAlgebra]] = {
    "two-loop-local": two_loop_local_algebra,
    "end-reference": reference_end_algebra,
}


def builtin_algebra(name: str, length_cap: int = 20) -> PresentedAlgebra:
    """Resolve a builtin algebra by registry name and build it with the
    given length cap."""
    try:
        factory = BUILTIN_ALGEBRAS[name]
    except KeyError:
        raise ValueError(
            "unknown builtin algebra %r (available: %s)"
            % (name, ", ".join(sorted(BUILTIN_ALGEBRAS)))
        ) from None
    return factory(length_cap)
