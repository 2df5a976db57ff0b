"""Semifree resolutions of DG-modules by iterated cocones.

Each stage maps a free module P_k onto the top certified cohomology of the
current cocone N_k and replaces N_k by cocone(P_k -> N_k), which kills that
top degree and can only create cohomology strictly below it (in the frame
of the eventual resolution the stage positions strictly decrease, which is
also asserted).  The free generators accumulated along the way, with the
glue entries among them, form a semifree module SF quasi-isomorphic to the
input down to a controllable degree: if the process is stopped while
cohomology survives at degree s after k stages, SF carries known_lo = s-k+1
and matches the input from s-k+2 up.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..complexes import FreeComplex
from ..core.freemod import GradedFreeModule, GradedMatrix
from ..core.poly import Poly
from ..core.ring import GradedRing
from .dgring import AElem
from .dgmodule import (
    DGMap,
    DGModule,
    cone_dg,
    free_dg_module,
    h0_cyclic_dg_module,
    hom_semifree_into_dg,
    shift_dg,
)


class SemifreeResolution:
    """Semifree replacement of a DG-module.

    sf            -- DGModule with free generators only
    source        -- the module being resolved
    glue_to_source-- raw differential entries from the accumulated free
                     generators into the source block of the final cocone
                     (the comparison data, kept in the cocone's frame)
    stages        -- per stage: dict with position (cohdeg in sf), twists
    terminated    -- True when the tower stopped because nothing was left
    """

    def __init__(self, sf, source, glue_to_source, stages, terminated):
        self.sf = sf
        self.source = source
        self.glue_to_source = glue_to_source
        self.stages = stages
        self.terminated = terminated

    def length_below(self) -> Optional[int]:
        """Lowest stage position, None for the zero resolution."""
        if not self.stages:
            return None
        return self.stages[-1]["position"]

    def to_json(self) -> dict:
        return {
            "terminated": self.terminated,
            "stages": [
                {"position": st["position"], "twists": list(st["twists"])}
                for st in self.stages
            ],
            "known_lo": self.sf.known_lo,
        }


def _no_cohomology_below(N: DGModule, floor: int) -> bool:
    """True when H(N) vanishes at every slot degree strictly below floor.

    Scans downward from the floor; a leftover class usually sits just
    underneath it, so the negative answer is cheap."""
    mn = N.min_slot_cohdeg()
    if mn is None:
        return True
    for s in range(floor - 1, mn - 1, -1):
        if not N.cohomology(s).is_zero():
            return False
    return True


class SppjStage:
    """One cover-and-cone step: a free module P covering the top cohomology
    of M, the covering map, and the cone of that map (whose cohomology at
    the covered degree is gone, surjectivity of H(f) there being exactly
    how the cover was chosen)."""

    __slots__ = ("position", "cover", "map", "cone", "twists")

    def __init__(self, position, cover, map, cone, twists):
        self.position = position
        self.cover = cover
        self.map = map
        self.cone = cone
        self.twists = twists

    def to_json(self) -> dict:
        return {
            "position": self.position,
            "twists": list(self.twists),
            "cover-rank": len(self.cover.gens),
        }


def _stage(M: DGModule, floor: Optional[int]) -> Optional[SppjStage]:
    """The stage covering the top nonzero certified H^s(M) with s >= floor,
    one free generator per minimal generator of H^s(M); None when there is
    no such s (certification cut, slot support and floor combined)."""
    hi = M.max_slot_cohdeg()
    if hi is None:
        return None
    eff = M.min_slot_cohdeg()
    if M.known_lo is not None:
        eff = max(eff, M.known_lo + 1)
    if floor is not None:
        eff = max(eff, floor)
    for s in range(hi, eff - 1, -1):
        data = M.cohomology(s)
        if not data.is_zero():
            break
    else:
        return None
    A = M.A
    P = free_dg_module(A, [(s, tw) for tw in data.generator_degrees])
    entries: Dict[int, Dict[int, AElem]] = {}
    slots = M.slots_by_degree()[s]
    for t, rep in enumerate(data.representatives):
        row: Dict[int, AElem] = {}
        for idx, (i, sym) in enumerate(slots):
            p = rep[idx]
            if p.is_zero():
                continue
            if i in row:
                row[i] = row[i].add(AElem(A, {sym: p}))
            else:
                row[i] = AElem(A, {sym: p})
        if row:
            entries[t] = row
    f = DGMap(P, M, entries, check=False)
    return SppjStage(s, P, f, cone_dg(f, check=False), tuple(data.generator_degrees))


def sppj_step(M: DGModule, floor: Optional[int] = None) -> SppjStage:
    """Cover the top certified cohomology of M by a finite free module.

    Raises ValueError when no certified cohomology remains at or above
    floor (nothing to cover)."""
    stage = _stage(M, floor)
    if stage is None:
        raise ValueError("no certified cohomology at or above the floor")
    return stage


def semifree_resolution(
    M: DGModule,
    window_lo: Optional[int] = None,
    max_stages: Optional[int] = None,
    certify: bool = True,
) -> SemifreeResolution:
    """Resolve M by a semifree DG-module, faithfully above window_lo.

    window_lo=None asks for exact termination and raises RuntimeError when
    the tower does not stop within max_stages."""
    A = M.A
    if all(g.kind == "free" for g in M.gens):
        # already semifree: with only free generators over a non-positive
        # ring, ordering by descending cohomological degree is a filtration
        glue = {j: {j: A.from_base(A.base.one())} for j in range(len(M.gens))}
        return SemifreeResolution(M, M, glue, [], M.known_lo is None)
    m = len(M.gens)
    N = M
    k = 0
    stages: List[dict] = []
    prev_pos: Optional[int] = None
    if max_stages is None:
        if window_lo is not None:
            top = M.max_slot_cohdeg()
            span = 4 if top is None else top - window_lo + 6
            max_stages = max(4, span)
        else:
            max_stages = 48
    floor_now = None
    while True:
        if window_lo is not None:
            # only cohomology at s with s - k > window_lo - 2 forces a stage
            floor_now = window_lo + k - 1
        stage = _stage(N, floor_now)
        if stage is None:
            break
        if k >= max_stages:
            raise RuntimeError(
                "semifree tower did not stabilize after %d stages" % k
            )
        N = shift_dg(stage.cone, -1)  # the cocone of the covering map
        k += 1
        pos = stage.position - (k - 1)
        if prev_pos is not None and pos >= prev_pos:
            raise AssertionError("stage positions failed to decrease")
        prev_pos = pos
        stages.append({"position": pos, "twists": stage.twists})
    # extract the free block and shift it back to the source's frame
    total = len(N.gens)
    sf_gens = [N.gens[t].shifted(k - 1) for t in range(m, total)]
    sign = -1 if (k - 1) % 2 else 1
    sf_diff: Dict[int, Dict[int, AElem]] = {}
    glue: Dict[int, Dict[int, AElem]] = {}
    for j in range(m, total):
        row = N.diff.get(j)
        if not row:
            continue
        inner = {
            i - m: a.scale_int(sign) for i, a in row.items() if i >= m
        }
        if inner:
            sf_diff[j - m] = inner
        outer = {i: a for i, a in row.items() if i < m}
        if outer:
            glue[j - m] = outer
    # trust window for the extracted resolution
    terminated = False
    lo_sf: Optional[int] = None
    if window_lo is not None:
        floor_eff = window_lo + k - 1
        if N.known_lo is not None:
            floor_eff = max(floor_eff, N.known_lo + 1)
        mn = N.min_slot_cohdeg()
        if N.known_lo is None and (
            mn is None
            or floor_eff <= mn
            or _no_cohomology_below(N, floor_eff)
        ):
            # nothing was left below the floor either: the tower is finished
            terminated = True
        else:
            lo_sf = floor_eff - k
    else:
        if N.known_lo is None:
            terminated = True
        else:
            lo_sf = N.known_lo + 1 - k
    if M.known_lo is not None:
        cand = M.known_lo + 1
        lo_sf = cand if lo_sf is None else max(lo_sf, cand)
        terminated = False
    sf = DGModule(A, sf_gens, sf_diff, known_lo=lo_sf, check=False)
    if certify:
        sf.underlying().validate()
    return SemifreeResolution(sf, M, glue, stages, terminated)


def reduce_to_h0(SF: DGModule) -> FreeComplex:
    """H^0(A) tensor_A SF for a semifree SF: the free H^0-complex on the
    generators, differential the unit-slot coefficients of the glue."""
    A = SF.A
    for g in SF.gens:
        if g.kind != "free":
            raise ValueError("reduction needs a semifree module")
    return _reduction_over(SF, A.h0_ring())


def tensor_reduce(SF: DGModule, extra_relations: Sequence[Poly]) -> FreeComplex:
    """(H^0/extra) tensor_A SF, computed over the smaller quotient ring."""
    A = SF.A
    for g in SF.gens:
        if g.kind != "free":
            raise ValueError("reduction needs a semifree module")
    rels = list(A.h0_extra)
    for p in extra_relations:
        q = A.base.normal_form(p)
        if not q.is_zero():
            rels.append(q)
    ring = A.base.quotient(rels) if rels else A.base
    return _reduction_over(SF, ring)


def _reduction_over(SF: DGModule, ring: GradedRing) -> FreeComplex:
    by_deg: Dict[int, List[int]] = {}
    for j, g in enumerate(SF.gens):
        by_deg.setdefault(g.cohdeg, []).append(j)
    for lst in by_deg.values():
        lst.sort()
    comps = {
        c: GradedFreeModule(ring, [SF.gens[j].twist for j in lst])
        for c, lst in by_deg.items()
    }
    diffs: Dict[int, GradedMatrix] = {}
    for c, lst in sorted(by_deg.items()):
        tgt_lst = by_deg.get(c + 1)
        if not tgt_lst:
            continue
        rows = [
            [
                SF.diff.get(j, {}).get(i, SF.A.zero_elem()).unit_part()
                for j in lst
            ]
            for i in tgt_lst
        ]
        diffs[c] = GradedMatrix(comps[c + 1], comps[c], rows)
    return FreeComplex(
        ring, comps, diffs, known_lo=SF.known_lo, check=True
    )


def reduce_dg_module(
    M: DGModule,
    window_lo: Optional[int] = None,
    max_stages: Optional[int] = None,
):
    """Derived base change of M to H^0(A), as a complex over H^0(A).

    Resolves M semifreely first; the window floor is passed through."""
    res = semifree_resolution(M, window_lo=window_lo, max_stages=max_stages)
    return reduce_to_h0(res.sf)


def coreduce_dg_module(
    M: DGModule,
    window_lo: Optional[int] = None,
    max_stages: Optional[int] = None,
):
    """Derived Hom from H^0(A) into M, as a presented complex over the base.

    The cohomology modules are annihilated by everything that dies in
    H^0(A), so the result is a complex of H^0(A)-modules in disguise; its
    bottom cohomology agrees with the bottom cohomology of M."""
    A = M.A
    H = h0_cyclic_dg_module(A, [])
    res = semifree_resolution(H, window_lo=window_lo, max_stages=max_stages)
    return hom_semifree_into_dg(res.sf, M)
