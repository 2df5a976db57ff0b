"""Semifree resolutions of DG-modules by iterated cocones.

Each stage maps a free module P_k onto the top certified cohomology of the
current cocone N_k and replaces N_k by cocone(P_k -> N_k), which kills that
top degree and can only create cohomology strictly below it (in the frame
of the eventual resolution the stage positions strictly decrease, which is
also asserted).  The free generators accumulated along the way, with the
glue entries among them, form a semifree module SF quasi-isomorphic to the
input down to a controllable degree: if the process is stopped while
cohomology survives at degree s after k stages, SF matches the input from
s-k+2 up, and the resolution, not SF, carries known_lo = s-k+1.  The
resolution is the one carrier of a trust window; DG-modules have none.

Each stage's scan starts at the degree the previous stage covered.  Say a
stage covers the top nonzero H^s(N) by P.  The generators of P sit at s
and A is non-positive, so H^t(P) = 0 for t > s.  In the long exact
sequence of cone(P -> N),

    H^t(P) -> H^t(N) -> H^t(cone) -> H^{t+1}(P),

the right-hand term vanishes for t >= s and H^t(N) does for t > s, so
H^t(cone) = 0 for t > s; at t = s, H^s(P) -> H^s(N) is onto by the choice
of cover, so H^s(cone) = 0 too.  The cocone is cone[-1], so it has no
cohomology above s, and the next stage scans down from s instead of from
its top slot degree.  No cohomology is carried from one stage to the next:
the ceiling alone keeps every degree above s from being read again.

Every tower is windowed: faithful above window_lo, no claim below it.  Each
caller cites a bound for its window: two degrees below dim H^0(A) - inf M
for a projective dimension (the Ext-search oracle and the Hochschild
diagonal too), two below the syzygy bound v - (bottom slot) over a
polynomial ring in v variables for local cohomology, and as deep as their
scan reads for the Bass numbers.  The ceiling makes the positions decrease
while the floor rises by one per stage, so at most top slot - window_lo + 2
stages run.  A tower stops once no cohomology is left at or above its
floor, and it reads the end state for termination only where that costs
nothing: no slots left, or the floor at or below the bottom slot.
Otherwise the resolution keeps its final cocone and carries the window
bound as its known_lo.  Whether the cocone has cohomology below the floor is
a separate question, asked only by certify_termination, the one function
that runs that scan; a caller that only reads the window (the Bass
numbers) never pays for it.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..complexes import PresentedComplex
from ..core.freemod import GradedFreeModule, GradedMatrix
from .dgring import AElem
from .dgmodule import (
    DGMap,
    DGModule,
    cone_dg,
    free_dg_module,
    shift_dg,
)


class SemifreeResolution:
    """Semifree replacement of a DG-module.

    sf       -- DGModule with free generators only
    stages   -- per stage: dict with position (cohdeg in sf), twists
    known_lo -- None when sf is a quasi-isomorphism, the tower having
                stopped because nothing was left; otherwise sf is faithful
                strictly above known_lo only
    pending  -- (final cocone, floor) of a tower whose termination only
                the scan of certify_termination can decide, else None
    """

    def __init__(self, sf, stages, known_lo=None, pending=None):
        self.sf = sf
        self.stages = stages
        self.known_lo = known_lo
        self.pending = pending

    @property
    def terminated(self) -> bool:
        return self.known_lo is None


def certify_termination(res: SemifreeResolution) -> SemifreeResolution:
    """The resolution with its termination decided: when the final cocone
    of a tower has no cohomology at any slot degree below the floor,
    nothing was left and the tower is finished, so the result is the same
    sf and stages with no window.  Otherwise res itself.

    This is the only place the below-floor scan runs.  It scans downward
    from the floor; a leftover class usually sits just underneath it, so
    the negative answer is cheap.  Each degree is the degreewise
    linear-algebra vanishing test, so a degree found nonzero builds no
    minimal presentation here."""
    if res.pending is None:
        return res
    N, floor = res.pending
    for s in range(floor - 1, N.min_slot_cohdeg() - 1, -1):
        if not N.cohomology_vanishes(s):
            return res
    return SemifreeResolution(res.sf, res.stages)


def _stage(
    M: DGModule, floor: int, ceiling: Optional[int]
) -> Optional[Tuple[int, DGModule, Tuple[int, ...]]]:
    """Cover the top nonzero certified H^s(M) with floor <= s <= ceiling by
    a free module P, one generator per minimal generator of H^s(M), and
    return (s, cone of P -> M, twists of P).  The cone has no cohomology at
    s, surjectivity of H(P) -> H(M) there being how the cover was chosen.
    The caller certifies that H(M) vanishes above the ceiling (None: no
    ceiling), so the scan starts there.  None when there is no such s
    (certification cut, slot support and floor combined)."""
    scan = M._scan_range()
    hi = scan.stop - 1 if ceiling is None else min(scan.stop - 1, ceiling)
    lo = max(scan.start, floor)
    data = next(
        (d for d in map(M.cohomology, range(hi, lo - 1, -1)) if not d.is_zero()), None
    )
    if data is None:
        return None
    s = data.degree
    A = M.A
    P = free_dg_module(A, [(s, tw) for tw in data.generator_degrees])
    entries: Dict[int, Dict[int, AElem]] = {}
    slots = M.slots_by_degree()[s]
    for t, rep in enumerate(data.representatives):
        by_gen: Dict[int, dict] = {}
        for idx in sorted(rep):
            i, sym = slots[idx]
            by_gen.setdefault(i, {})[sym] = rep[idx]
        entries[t] = {i: AElem(A, coeffs) for i, coeffs in by_gen.items()}
    cone = cone_dg(DGMap(P, M, entries), check=False)
    return s, cone, tuple(data.generator_degrees)


def semifree_resolution(M: DGModule, window_lo: int) -> SemifreeResolution:
    """Resolve M by a semifree DG-module, faithfully above window_lo.  The
    result is terminated only when its end state shows it without a scan:
    no slot below the floor.  Otherwise its known_lo is the window bound,
    and certify_termination decides termination by scanning below it."""
    if all(g.kind == "free" for g in M.gens):
        # already semifree: with only free generators over a non-positive
        # ring, ordering by descending cohomological degree is a filtration
        return SemifreeResolution(M, [])
    m = len(M.gens)
    N = M
    k = 0
    stages: List[dict] = []
    prev_pos: Optional[int] = None
    ceiling: Optional[int] = None
    while True:
        # only cohomology at s with s - k > window_lo - 2 forces a stage
        floor_now = window_lo + k - 1
        stage = _stage(N, floor_now, ceiling)
        if stage is None:
            break
        position, cone, twists = stage
        N = shift_dg(cone, -1)  # the cocone of the covering map
        # H(N) = 0 above the covered position (see the module docstring)
        ceiling = position
        k += 1
        pos = position - (k - 1)
        if prev_pos is not None and pos >= prev_pos:
            raise AssertionError("stage positions failed to decrease")
        prev_pos = pos
        stages.append({"position": pos, "twists": twists})
    # extract the free block and shift it back to the source's frame
    total = len(N.gens)
    sf_gens = [N.gens[t].shifted(k - 1) for t in range(m, total)]
    odd = (k - 1) % 2
    sf_diff: Dict[int, Dict[int, AElem]] = {}
    for j in range(m, total):
        inner = {
            i - m: a.negate() if odd else a
            for i, a in N.diff.get(j, {}).items()
            if i >= m
        }
        if inner:
            sf_diff[j - m] = inner
    sf = DGModule(M.A, sf_gens, sf_diff, check=False)
    sf.underlying().validate()
    mn = N.min_slot_cohdeg()
    if mn is None or floor_now <= mn:
        # no slot below the floor: the tower is finished
        return SemifreeResolution(sf, stages)
    return SemifreeResolution(sf, stages, floor_now - k, (N, floor_now))


def reduce_to_h0(res: SemifreeResolution) -> PresentedComplex:
    """H^0(A) tensor_A SF for the semifree SF = res.sf: the free complex over
    H^0(A) on the generators, differential the unit-slot coefficients of the
    glue, with the window of res.  complexes.base_change takes it on to a
    quotient of H^0(A)."""
    SF = res.sf
    A = SF.A
    for g in SF.gens:
        if g.kind != "free":
            raise ValueError("reduction needs a semifree module")
    ring = A.h0_ring()
    by_deg: Dict[int, List[int]] = {}
    for j, g in enumerate(SF.gens):
        by_deg.setdefault(g.cohdeg, []).append(j)
    for lst in by_deg.values():
        lst.sort()
    covers = {
        c: GradedFreeModule(ring, [SF.gens[j].twist for j in lst])
        for c, lst in by_deg.items()
    }
    diffs: Dict[int, GradedMatrix] = {}
    for c, lst in sorted(by_deg.items()):
        tgt_lst = by_deg.get(c + 1)
        if not tgt_lst:
            continue
        pos = {i: r for r, i in enumerate(tgt_lst)}
        cols = [
            {pos[i]: a.unit_part() for i, a in SF.diff.get(j, {}).items() if i in pos}
            for j in lst
        ]
        diffs[c] = GradedMatrix(covers[c + 1], covers[c], cols)
    return PresentedComplex(ring, covers, diffs, known_lo=res.known_lo, check=True)
