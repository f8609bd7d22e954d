"""Strong convergence and Cauchy indices of a finite prefix of a sequence."""

from probnorm.pnspace import PNSpace


def strong_convergence_index(P: PNSpace, seq, limit, t_grid) -> dict[float, int | None]:
    """For each t, the first index from which the whole remaining prefix sits
    in the neighborhood N_limit(t); None if the prefix never settles."""
    out: dict[float, int | None] = {}
    for t in t_grid:
        inside = [P.neighborhood_contains(limit, t, p) for p in seq]
        settled = None
        for m in range(len(seq)):
            if all(inside[m:]):
                settled = m
                break
        out[t] = settled
    return out


def strong_cauchy_index(P: PNSpace, seq, t_grid) -> dict[float, int | None]:
    """For each t, the first N with nu_{p_n - p_m}(t) > 1 - t for all m, n > N."""
    out: dict[float, int | None] = {}
    for t in t_grid:
        settled = None
        for N in range(len(seq)):
            tail = seq[N + 1 :]
            if all(
                P.neighborhood_contains(a, t, b) for i, a in enumerate(tail) for b in tail[i:]
            ):
                settled = N
                break
        out[t] = settled
    return out
