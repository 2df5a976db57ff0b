"""Semifree resolutions of DG-modules by iterated cones, in M's own frame.

The tower keeps N = cone(SF -> M) = M + SF[1], M's generators in their own
degrees.  Each stage maps a free module P onto the top certified
cohomology H^s(N) and replaces N by cone(P -> N), which is again
cone(SF' -> M): SF' is SF plus P, with P's generators at s, the glue into
SF[1] their differential and the glue into M their map.  So a stage only
appends generators and rows, and the stage position s is the degree of
P's generators in SF.  The cone kills H^s and can create cohomology only
strictly below s, so the positions strictly decrease (also asserted).  In
the long exact sequence H^{t-1}(N) -> H^t(SF) -> H^t(M) -> H^t(N), SF -> M
is an isomorphism on H^t wherever N has no cohomology at t - 1 and t: if
the tower stops with no cohomology of N at or above its floor f, SF
matches the input above f, and the resolution, not SF, carries
known_lo = f.  The resolution is the one carrier of a trust window;
DG-modules have none.

Each stage's scan starts just below the degree the previous stage covered.
Say a stage covers the top nonzero H^s(N) by P.  The generators of P sit
at s and A is non-positive, so H^t(P) = 0 for t > s.  In the long exact
sequence of cone(P -> N),

    H^t(P) -> H^t(N) -> H^t(cone) -> H^{t+1}(P),

the right-hand term vanishes for t >= s and H^t(N) does for t > s, so
H^t(cone) = 0 for t > s; at t = s, H^s(P) -> H^s(N) is onto by the choice
of cover, so H^s(cone) = 0 too.  So H^t(cone) = 0 for t >= s, and the next
stage scans down from s - 1 instead of from its top slot degree.  No
cohomology is carried from one stage to the next: the ceiling alone keeps
every degree at or above s from being read again.

Every tower is windowed: faithful above window_lo, no claim below it.
There are two window rules.  The main bound puts the window two degrees
below -(dim H^0(A) - inf M): every minimal free complex is read through
proj_dim (depth and local cohomology over the ambient polynomial ring, the
Hochschild diagonal), and the Ext-search oracle uses the same bound.  The
Bass numbers window as deep as their scan reads.  The floor is
window_lo - 1 for the whole tower, and the positions strictly decrease
above it, so at most top slot - window_lo + 2 stages run.  A tower stops
once no cohomology is left at or above its floor, and it reads the end
state for termination only where that costs nothing: no slots left, or
the floor at or below the bottom slot.  Otherwise the resolution keeps its
final cone and carries the floor as its known_lo.  Whether the cone has
cohomology below the floor is a separate question, asked only by
certify_termination, the one function that runs that scan; a caller that
only reads the window (the Bass numbers) never pays for it.
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
)


class SemifreeResolution:
    """Semifree replacement of a DG-module.

    sf       -- DGModule with free generators only
    stages   -- per stage: dict with position (cohdeg in sf), twists
    known_lo -- None when sf is a quasi-isomorphism, the tower having
                stopped because nothing was left; otherwise sf is faithful
                strictly above known_lo only
    pending  -- the final cone of a tower whose termination only the
                scan of certify_termination can decide, else None
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
    """The resolution with its termination decided: when the final cone of
    a tower has no cohomology at any slot degree below its floor known_lo,
    nothing was left and the tower is finished, so the result is the same
    sf and stages with no window.  Otherwise res itself.

    This is the only place the below-floor scan runs.  It scans downward
    from the floor; a leftover class usually sits just underneath it, so
    the negative answer is cheap.  Each degree is the degreewise
    linear-algebra vanishing test, so a degree found nonzero builds no
    minimal presentation here."""
    if res.pending is None:
        return res
    N = res.pending
    for s in range(res.known_lo - 1, N.min_slot_cohdeg() - 1, -1):
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
    N = M  # cone(SF -> M), SF growing by one free block per stage
    # only cohomology at or above the floor forces a stage
    floor = window_lo - 1
    stages: List[dict] = []
    ceiling: Optional[int] = None
    while True:
        stage = _stage(N, floor, ceiling)
        if stage is None:
            break
        position, N, twists = stage
        if stages and position >= stages[-1]["position"]:
            raise AssertionError("stage positions failed to decrease")
        # H(N) = 0 from the covered position up (see the module docstring)
        ceiling = position - 1
        stages.append({"position": position, "twists": twists})
    # N = M + SF[1]: shift the free block back by one
    sf_gens = [g.shifted(-1) for g in N.gens[m:]]
    sf_diff: Dict[int, Dict[int, AElem]] = {}
    for j in range(m, len(N.gens)):
        inner = {i - m: a.negate() for i, a in N.diff.get(j, {}).items() if i >= m}
        if inner:
            sf_diff[j - m] = inner
    sf = DGModule(M.A, sf_gens, sf_diff, check=False)
    sf.underlying().validate()
    mn = N.min_slot_cohdeg()
    if mn is None or floor <= mn:
        # no slot below the floor: the tower is finished
        return SemifreeResolution(sf, stages)
    return SemifreeResolution(sf, stages, floor, N)


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
