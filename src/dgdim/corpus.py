"""Seeded corpora for the randomized property suites.

Two generators live here.  The first builds perfect DG-modules (iterated
mapping cones over a free module, so finite flat dimension is automatic)
over the three ring families the suites exercise.  The second pads a graded
module presentation with redundant generators and relations, for checking
that minimal resolutions do not see the presentation.

Every generator takes an explicit random.Random, never the global state.
"""
from functools import lru_cache
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import minimal_free_resolution_module
from .core import GradedFreeModule, GradedMatrix, GradedModule, GradedRing, Poly, make_graded_ring
from .dg import (
    DGModule,
    DGRing,
    build_koszul_dg,
    build_ring_dg,
    build_split_trivial_extension,
    cone_dg,
    direct_sum_dg,
    free_dg_module,
    h0_cyclic_dg_module,
    hom_semifree_into_dg,
    multiplication_map,
    per_factor,
    residue_dg_module,
    shift_dg,
    twist_dg,
)
from .dg.tower import certify_termination, semifree_resolution


@lru_cache(maxsize=2)
def standard_families(field: str = "Q"):
    """The three DG-ring families the randomized suites draw modules over:
    a polynomial ring, a Koszul quotient of one, and a split trivial
    extension with one-dimensional tail.

    Built once per field tag (the two most recent are kept) and shared by
    every caller, so the memos on these immutable rings carry over from
    one check to the next."""
    R = make_graded_ring(field, ["x", "y"])
    x, y = R.variables()
    return (
        build_ring_dg(R),
        build_koszul_dg(R, [x, R.mul(x, y)]),
        build_split_trivial_extension(
            make_graded_ring(field, ["x"]), make_graded_ring(field, []), 1
        ),
    )


def homogeneous_pool(A: DGRing) -> List[Poly]:
    """Nonzero non-constant elements of internal degree one and two, the
    multipliers available to the cone step."""
    base = A.base
    vars_ = base.variables()
    seen = set()
    pool: List[Poly] = []
    for p in list(vars_) + [base.mul(u, v) for u in vars_ for v in vars_]:
        q = base.normal_form(p)
        if q.is_zero() or q.degree() == 0:
            continue
        key = str(q)
        if key not in seen:
            seen.add(key)
            pool.append(q)
    return pool


def random_recipe(A: DGRing, rng: Random, steps: int) -> List[Tuple[str, tuple]]:
    """A build plan for one perfect module: a starting placement followed by
    cone/shift/twist/extra-summand steps.  Kept as data so the same plan can
    be replayed with a different starting module (replaying against a
    resolution of R computes R tensor M step by step)."""
    pool = homogeneous_pool(A)
    recipe: List[Tuple[str, tuple]] = [("start", (0, rng.randrange(0, 2)))]
    ops = ["cone", "cone", "shift", "twist", "sum"] if pool else ["shift", "twist", "sum"]
    cones = 0
    for _ in range(steps):
        op = rng.choice(ops)
        if op == "cone" and cones >= 3:
            op = "shift"
        if op == "cone":
            recipe.append(("cone", (rng.choice(pool),)))
            cones += 1
        elif op == "shift":
            recipe.append(("shift", (rng.choice([-1, 1, 2]),)))
        elif op == "twist":
            recipe.append(("twist", (rng.choice([1, 2]),)))
        else:
            recipe.append(("sum", (rng.choice([-1, 0, 1]), rng.randrange(0, 3))))
    return recipe


def apply_recipe(recipe: Sequence[Tuple[str, tuple]], make_start) -> DGModule:
    """Replay a recipe; make_start(cohdeg, twist) supplies the rank-one
    building block ("start" and every extra summand)."""
    M: Optional[DGModule] = None
    for op, arg in recipe:
        if op in ("start", "sum"):
            piece = make_start(arg[0], arg[1])
            M = piece if M is None else direct_sum_dg(M, piece)
        elif op == "cone":
            M = cone_dg(multiplication_map(M, arg[0]), check=False)
        elif op == "shift":
            M = shift_dg(M, arg[0])
        elif op == "twist":
            M = twist_dg(M, arg[0])
        else:
            raise ValueError("unknown recipe step %r" % (op,))
    return M


def free_start(A: DGRing):
    return lambda c, t: free_dg_module(A, [(c, t)])


def tensor_start(R: DGModule):
    """Starting block for replaying a recipe against a fixed module R: the
    rank-one free placement (c, t) becomes R shifted and twisted the same
    way, so the replay computes R tensor (recipe module)."""
    return lambda c, t: shift_dg(twist_dg(R, t), -c)


def _random_connected_module(A: DGRing, rng: Random, steps: int) -> DGModule:
    return apply_recipe(random_recipe(A, rng, steps), free_start(A))


def random_perfect_module(A, rng: Random, steps: Optional[int] = None):
    """A random perfect module over A: cones over multiplication maps,
    shifts, twists and free summands, all starting from rank one.  Over a
    product ring each factor gets its own independent build."""
    if steps is None:
        steps = rng.randrange(2, 5)
    return per_factor(_random_connected_module, A, rng, steps)


# ---------- independent projective-dimension oracle ----------


def amplitude_zero_test_family(A: DGRing) -> List[Tuple[str, DGModule]]:
    """DG-modules concentrated in one cohomological degree: the residue
    field, cyclic quotients by single variables, and H^0 itself."""
    fam: List[Tuple[str, DGModule]] = [("k", residue_dg_module(A))]
    for v in A.base.variables():
        fam.append(("H0/(%s)" % v, h0_cyclic_dg_module(A, [v])))
    fam.append(("H0", h0_cyclic_dg_module(A, [])))
    return fam


def direct_ext_projdim(M: DGModule) -> Optional[int]:
    """Projective dimension found by brute Ext search: resolve, map into
    each amplitude-zero test module, and take the top nonvanishing degree.
    Each Hom complex is scanned from its top down to the first nonzero
    degree, and never at or below the best degree found so far.  Returns
    None when nothing survives (the acyclic case).  It runs on
    M.over_model(), with the test modules of that module's ring, windowed
    as proj_dim is."""
    M = M.over_model()
    A = M.A
    infM = M.inf_h()
    if infM is None:
        return None
    res = certify_termination(
        semifree_resolution(M, window_lo=infM - A.dimension() - 2)
    )
    best: Optional[int] = None
    for _, T in amplitude_zero_test_family(A):
        H = hom_semifree_into_dg(res, T)
        supp = H.support()
        if not supp:
            continue
        stop = supp[0] - 1 if best is None else max(supp[0] - 1, best)
        best = next(
            (i for i in range(supp[-1], stop, -1) if not H.cohomology_vanishes(i)),
            best,
        )
    return best


# ---------- redundant presentations ----------


def _random_monomial(ring: GradedRing, rng: Random, degree: int) -> Poly:
    """A product of `degree` random variables, taken in the ambient ring so
    that its degree is defined even when it vanishes in ring."""
    p = ring.ambient.one()
    vars_ = ring.variables()
    for _ in range(degree):
        p = p * rng.choice(vars_)
    return p


def redundant_presentation(M: GradedModule, rng: Random) -> GradedModule:
    """The same module on a padded presentation.

    Adds a generator that is a monomial multiple of an old one (with the
    column that says so), then a relation that is a monomial multiple of
    an old relation, then shuffles the column order.
    """
    ring = M.ring
    P = M.presentation
    tgt_degs = list(P.target.degrees)
    cols = [dict(col) for col in P.cols]
    col_degs = list(P.source.degrees)

    # redundant generator: e_new = m * e_i, recorded by the column m*e_i - e_new
    i = rng.randrange(len(tgt_degs))
    mono = _random_monomial(ring, rng, rng.choice([1, 2]))
    m = ring.normal_form(mono)
    new_deg = tgt_degs[i] + mono.degree()
    link = {i: m} if m else {}
    link[len(tgt_degs)] = ring.one().scale(-1)
    tgt_degs.append(new_deg)
    cols.append(link)
    col_degs.append(new_deg)

    # redundant relation: a monomial multiple of an existing column
    if cols:
        j = rng.randrange(len(cols))
        m2 = _random_monomial(ring, rng, rng.choice([1, 2]))
        cols.append(
            {r: p for r, e in cols[j].items() if (p := ring.mul(m2, e))}
        )
        col_degs.append(col_degs[j] + m2.degree())

    order = list(range(len(cols)))
    rng.shuffle(order)
    cols = [cols[j] for j in order]
    col_degs = [col_degs[j] for j in order]

    target = GradedFreeModule(ring, tuple(tgt_degs))
    return GradedModule(GradedMatrix.from_columns(target, col_degs, cols))


# resolution_signature compares minimal resolutions through this many steps
_SIGNATURE_CUTOFF = 8


def resolution_signature(M: GradedModule) -> Dict[int, Tuple[int, ...]]:
    """Order-free view of the Betti table: sorted degree tuples per index."""
    F = minimal_free_resolution_module(M, cutoff=_SIGNATURE_CUTOFF)
    return {i: tuple(sorted(F.cover(i).degrees)) for i in F.support()}
