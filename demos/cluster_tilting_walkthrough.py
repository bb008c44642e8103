"""End-to-end tour: from a six-dimensional local algebra to a verified
2-cluster-tilting module and the quiver presentation of its
endomorphism ring.

Run:  PYTHONPATH=src python3 demos/cluster_tilting_walkthrough.py
"""

from quivalg import (
    cartan_determinant,
    cluster_tilting_verdict,
    direct_sum,
    dual,
    ext_dim,
    format_algebra,
    is_isomorphic,
    is_selfinjective,
    minimize_relations,
    projective_dimension,
    regular_module,
    tau2,
    two_loop_local_algebra,
)


def main():
    print("== the base algebra ==")
    a = two_loop_local_algebra()
    print(f"A = K<a,b> / (a^2, ab + b^2 + b^2a), dim {a.dim}")
    print(f"selfinjective: {is_selfinjective(a)}")
    print(f"basis: {[a.quiver.format_path(p) for p in a.basis]}")
    print()

    print("== iterated second translates of the dual regular module ==")
    da = dual(regular_module(a.opposite))
    translates = [da]
    for k in range(4):
        translates.append(tau2(translates[-1]))
    for k, t in enumerate(translates):
        name = "DA" if k == 0 else f"tau2^{k}(DA)"
        print(f"{name:>10}: dim {t.total_dim}")
    u4 = translates[4]
    print(f"last translate projective: {projective_dimension(u4, 0) == 0}, "
          f"isomorphic to A: {bool(is_isomorphic(u4, regular_module(a)))}")
    print()

    print("== the candidate module and its endomorphism ring ==")
    m = direct_sum(translates)
    print(f"M = sum of the five translates, dim {m.total_dim}")
    # one verdict computes End(M) from the translates, which are M's
    # summands, its presentation and the dimensions of B; everything
    # below reads it off
    verdict = cluster_tilting_verdict(translates, 2, bound=6)
    pres = verdict.presentation
    print(f"dim End(M) = {verdict.end_dim}")
    print(f"indecomposable summands: {[x.total_dim for x in pres.summands]}")
    print()

    print("== End(M) by quiver and relations ==")
    print(f"vertices: {pres.quiver.num_vertices}, arrows: {len(pres.quiver.arrows)}")
    print("adjacency (row = source summand):")
    for row in pres.adjacency:
        print(f"   {row}")
    print(f"raw relations: {pres.raw_relation_count}, "
          f"presented dimension: {pres.presented.dim}")
    # one sweep of the raw relations drops those in the ideal of the others
    kept = minimize_relations(pres.quiver, pres.relations, pres.end_dim, length_cap=20)
    print(f"after dropping relations in the ideal of the others: {len(kept)} relations")
    print()

    print("== homological profile of B = End(M) ==")
    print(f"gldim B  = {verdict.global_dimension}")
    print(f"domdim B = {verdict.dominant_dimension}")
    print(f"Cartan determinant = {cartan_determinant(pres.presented)}")
    print(f"Ext1(DA, A) = {ext_dim(da, regular_module(a), 1)}")
    print(f"Ext1(M, M)  = {verdict.ext_dims[1]}")
    print()

    print("== verdict ==")
    print(f"M is 2-cluster-tilting: {verdict.is_cluster_tilting}")
    print(f"B is a higher Auslander algebra: gldim = domdim = {verdict.global_dimension}")
    print()
    print("presentation in the text format:")
    text = format_algebra(pres.quiver, kept)
    print("\n".join(text.splitlines()[:18]))
    print(f"... ({len(text.splitlines())} lines total)")


if __name__ == "__main__":
    main()
