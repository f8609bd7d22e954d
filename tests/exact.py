"""Reference operator norms in exact rational arithmetic, from the float inputs.

Every float is an integer times a power of two, so after scaling the
matrix, the domain weights and the codomain weights by powers of two each
becomes an integer array, and 1 / w_j becomes K_j / L with L the lcm of the
scaled domain weights.  Then every value below is one common positive
factor F times an integer:

- the primal value of a domain vertex u / w (u in {-1, 0, 1}^n) is F times
  the codomain norm, in integers, of Y_i = sum_j u_j T_ij K_j;
- the dual value of a codomain dual vertex z = c * w' (c in {-1, 0, 1}^m)
  is F times sum_j |G_j| K_j, with G_j = sum_i c_i w'_i T_ij;
- A, the codomain norm of |T| (1 / w), is F times the norm of sum_j |T_ij| K_j.

So the exact vertex sup and the exact dual sup are computed independently
of each other and of numpy's arithmetic, and they must agree.  The library
rounds; its error bound is derived in `operators._norm_table`.
"""

import itertools
import math
from fractions import Fraction

from probnorm.pnspace import NormKind, WeightedNorm


def _scaled(values):
    """(integers, s): values * 2^s as exact Python ints, s the least that works."""
    ratios = [float(v).as_integer_ratio() for v in values]
    s = max(den.bit_length() - 1 for _, den in ratios)
    return [num * (2**s // den) for num, den in ratios], s


def leaves(norm) -> list:
    """(kind, weights) of each weighted part of a band norm, in coordinate order."""
    if isinstance(norm, WeightedNorm):
        return [(norm.kind, norm.weights)]
    return [leaf for part in norm.parts for leaf in leaves(part)]


def dual_pairs(norm) -> int:
    """+-pairs of vertices of the norm's dual unit ball: 2^(d-1) for an L1
    part of dimension d alone, d for an Linf part, and half the product of
    the parts' full counts for a block sum."""
    full = math.prod(2 ** len(w) if kind is NormKind.L1 else 2 * len(w) for kind, w in leaves(norm))
    return full // 2


def dual_side(dom_norm, cod_norm) -> bool:
    """Whether the library's rule takes the dual side: an Linf domain and
    D n < 2^(n-1) m."""
    n, m = dom_norm.dimension, cod_norm.dimension
    return dom_norm.kind is NormKind.LINF and dual_pairs(cod_norm) * n < 2 ** (n - 1) * m


class Problem:
    """One operator norm ||T||_(dom, cod) held as integers with a common factor."""

    def __init__(self, matrix, dom_norm, cod_norm):
        rows = [list(map(float, row)) for row in matrix]
        self.m, self.n = len(rows), dom_norm.dimension
        flat, s_t = _scaled([v for row in rows for v in row])
        self.T = [flat[i * self.n : (i + 1) * self.n] for i in range(self.m)]
        W, s_w = _scaled(dom_norm.weights)
        L = math.lcm(*W)
        self.K = [L // wj for wj in W]
        self.dom_kind = dom_norm.kind
        self.parts, cod_w = [], []
        for kind, weights in leaves(cod_norm):
            self.parts.append((kind, range(len(cod_w), len(cod_w) + len(weights))))
            cod_w += weights
        self.Wc, s_c = _scaled(cod_w)
        # 1 / w_j = 2^s_w K_j / L, T_ij = T[i][j] / 2^s_t, w'_i = Wc[i] / 2^s_c
        self.row_factor = Fraction(2**s_w, 2**s_t * L)
        self.factor = self.row_factor / 2**s_c

    def _cod(self, Y) -> int:
        """The codomain norm of the integer vector Y, over self.factor."""
        total = 0
        for kind, idx in self.parts:
            terms = [self.Wc[i] * abs(Y[i]) for i in idx]
            total += sum(terms) if kind is NormKind.L1 else max(terms)
        return total

    def vertex_sup(self) -> Fraction:
        """The sup over the domain ball's vertices: columns for an L1 domain,
        every sign vector (built by doubling over j) for an Linf domain."""
        cols = [[self.T[i][j] * self.K[j] for i in range(self.m)] for j in range(self.n)]
        if self.dom_kind is NormKind.L1:
            return self.factor * max(self._cod(col) for col in cols)
        images = [cols[0]]
        for col in cols[1:]:
            images = [[a + s * b for a, b in zip(y, col)] for y in images for s in (1, -1)]
        return self.factor * max(self._cod(y) for y in images)

    def _dual_vertices(self):
        """Every vertex c of the codomain's dual ball, as z = c * w'."""
        choices = []
        for kind, idx in self.parts:
            if kind is NormKind.L1:
                choices.append([tuple(zip(idx, signs)) for signs in itertools.product((1, -1), repeat=len(idx))])
            else:
                choices.append([((i, s),) for i in idx for s in (1, -1)])
        for combo in itertools.product(*choices):
            yield [pair for part in combo for pair in part]

    def dual_sup(self) -> Fraction:
        """The sup of the domain's dual norm of T^T z over the dual ball's
        vertices z; for an Linf domain, sum_j |(T^T z)_j| / w_j."""
        if self.dom_kind is not NormKind.LINF:
            raise ValueError("the dual value is written for an Linf domain")
        rows = [[self.Wc[i] * t for t in self.T[i]] for i in range(self.m)]
        best = 0
        for z in self._dual_vertices():
            G = [sum(s * rows[i][j] for i, s in z) for j in range(self.n)]
            best = max(best, sum(abs(g) * k for g, k in zip(G, self.K)))
        return self.factor * best

    def abs_scale(self) -> Fraction:
        """A = || |T| (1 / w) ||_cod, which bounds the sum of |terms| of
        every vertex value on either side."""
        return self.factor * self._cod([sum(abs(t) * k for t, k in zip(row, self.K)) for row in self.T])

    def row_scale(self) -> Fraction:
        """max_i sum_j |T_ij| / w_j: the largest intermediate sum of |terms|
        before the codomain weights."""
        return self.row_factor * max(sum(abs(t) * k for t, k in zip(row, self.K)) for row in self.T)


def gamma(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53, exactly."""
    return Fraction(k, 2**53 - k)


def roundings(dual: bool, n: int, m: int) -> int:
    """The k of _norm_table's error bound on each side."""
    return n + m if dual else n + m + 1


def exact_norm(matrix, dom_norm, cod_norm) -> Fraction:
    """||T||_(dom, cod) exactly: the dual sup for an Linf domain (2^(n-1)
    sign vertices would be too many past n = 10), the best column for L1."""
    p = Problem(matrix, dom_norm, cod_norm)
    return p.dual_sup() if dom_norm.kind is NormKind.LINF else p.vertex_sup()


def error_bound(matrix, dom_norm, cod_norm) -> Fraction:
    """gamma_k A for the side the library's rule takes."""
    dual = dual_side(dom_norm, cod_norm)
    return gamma(roundings(dual, dom_norm.dimension, cod_norm.dimension)) * Problem(matrix, dom_norm, cod_norm).abs_scale()


def ulps(value: float, exact: Fraction) -> float:
    """|value - exact| in units in the last place of the float nearest exact."""
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))
