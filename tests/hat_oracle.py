"""Reference merges of two step functions' ends: the bisect forms that
distfn._walk replaced in qf_add, pnspace._hat_le and pnspace.product_space.

Each reads the union of the two lists of ends, sorted, and looks every
value up with bisect_left (qf_eval or band_index_left), so it shares no
merge loop with the library.  The library's results, errors included,
must match these bit for bit.
"""

from bisect import bisect_left

from probnorm.distfn import StepQuantile, qf_eval
from probnorm.pnspace import Band, BlockSumNorm, PNSpace, SeminormFamily

INF = float("inf")


def qf_add(Q1: StepQuantile, Q2: StepQuantile) -> StepQuantile:
    """The pointwise sum through the validating constructor.  The sums rise,
    and a +inf input stays +inf to the end, so the first +inf sum decides
    whether a finite pair overflowed."""
    merged = sorted(set(Q1.wbreaks) | set(Q2.wbreaks))
    sums = [qf_eval(Q1, w) + qf_eval(Q2, w) for w in merged]
    k = bisect_left(sums, INF)
    if k < len(sums) and qf_eval(Q1, merged[k]) < INF and qf_eval(Q2, merged[k]) < INF:
        raise ValueError("qvalue sum overflows the float range")
    return StepQuantile(tuple(merged), tuple(sums))


def hat_le(Q1: StepQuantile, *Q2: StepQuantile) -> bool:
    """Q1 <= the sum of Q2, up to 1e-12 relative, read at every wbreak of any."""
    for w in set(Q1.wbreaks).union(*(Q.wbreaks for Q in Q2)):
        q2 = sum(qf_eval(Q, w) for Q in Q2)
        if qf_eval(Q1, w) > q2 + 1e-12 * (1.0 + q2):
            return False
    return True


def product_space(P: PNSpace, Q: PNSpace) -> PNSpace:
    """Block sums of the covering band norms on the union of the band ends."""
    merged = sorted(set(P.family.uptos) | set(Q.family.uptos))
    bands = []
    for u in merged:
        pn = P.family.bands[P.family.band_index_left(u)].norm
        qn = Q.family.bands[Q.family.band_index_left(u)].norm
        bands.append(Band(u, BlockSumNorm((pn, qn), (P.dimension, Q.dimension))))
    return PNSpace(SeminormFamily(P.dimension + Q.dimension, tuple(bands)))
