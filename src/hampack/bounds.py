"""Closed-form bounds on lambda-fold 1-packings, evaluated exactly.

Everything is big-integer / rational arithmetic; a floor is applied
exactly once per bound, at the end.  Each result records which formula
case fired and under which assumptions, so reports stay traceable.

Bounds implemented:

  * the sphere-packing bound  floor(lambda q^n / |B_r|);
  * the spectral bound |C|/|V| <= (r lambda - a^2) / (r^2 - a^2) for an
    r-regular graph whose eigenvalues all have modulus >= a, and its
    specialization to H(n, q) via the eigenvalues -n + qi (an n-fold
    1-packing then has at most q^(n-1) words once q >= 2n);
  * the interval q^(n-1) <= max <= q^n / (q - 1 + 1/n) for lambda = n;
  * the linear-programming bound for binary lambda-fold 1-packings,
    with a four-way case split on n mod 4; the even-weight bound is the
    same table one coordinate longer (parity extension and puncturing
    map one family onto the other: even(n) = plain(n-1));
  * the known minimum cardinalities of nonempty plain and extended
    1-perfect unitrades;
  * the forced local weight distribution of an even-weight packing that
    attains the LP bound with equality: no repeated codewords and
    floor(n(lambda-1)/2) codewords at distance 2 from every codeword.
"""

from __future__ import annotations

from fractions import Fraction

from .core import _ball_size, _check_lambda, _frozen


def _validate_params(n: int, q: int) -> None:
    # bounds are pure arithmetic: no digit-string or bit-packing limits apply
    if type(n) is not int or n < 1:
        raise ValueError(f"word length must be a positive int, got n={n!r}")
    if type(q) is not int or q < 2:
        raise ValueError(f"alphabet size must be an int of at least 2, got q={q!r}")


@_frozen
class BoundResult:
    """An exact bound value with its provenance."""

    value: int
    raw: Fraction
    formula_id: str
    assumptions: tuple[str, ...] = ()
    vacuous: bool = False

    def __int__(self) -> int:
        return self.value


def sphere_packing_bound(n: int, q: int, lam: int, r: int) -> int:
    """floor(lambda q^n / |B_r|)."""
    _check_lambda(lam)
    _validate_params(n, q)
    return lam * q**n // _ball_size(n, q, r)


@_frozen
class SpectrumBoundInput:
    """Inputs to the regular-graph bound: degree, eigenvalue floor, fold, size."""

    degree: int
    alpha: Fraction
    lam: int
    num_vertices: int

    def __post_init__(self) -> None:
        if type(self.degree) is not int:
            raise ValueError(f"degree must be an int, got {self.degree!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.alpha >= self.degree:
            raise ValueError("alpha must be smaller than the degree")
        _check_lambda(self.lam)

    @property
    def vacuous(self) -> bool:
        return self.alpha * self.alpha > self.degree * self.lam


def regular_graph_bound(inp: SpectrumBoundInput) -> Fraction:
    """Density bound (r lam - alpha^2)/(r^2 - alpha^2); negative means vacuous."""
    r, a = Fraction(inp.degree), Fraction(inp.alpha)
    return (r * inp.lam - a * a) / (r * r - a * a)


def hamming_eigenvalue_bound(n: int, q: int, lam: int) -> BoundResult:
    """Spectral bound on lambda-fold 1-packings of H(n, q).

    The eigenvalues of H(n, q) are -n + qi for i = 0..n, so alpha is the
    smallest |-n + qi|; the optimality conclusion max = q^(n-1) for
    lam = n is only certified under q >= 2n, which is recorded rather
    than enforced.
    """
    _validate_params(n, q)
    r = n * (q - 1)
    size = q**n
    alpha = min(abs(-n + q * i) for i in range(n + 1))
    assumptions = []
    if q >= 2 * n:
        assumptions.append(f"q >= 2n holds ({q} >= {2 * n})")
    else:
        assumptions.append(f"outside the q >= 2n hypothesis (q={q}, 2n={2 * n})")
    if alpha >= r:
        raise ValueError("degenerate spectrum: alpha reaches the degree")
    inp = SpectrumBoundInput(r, Fraction(alpha), lam, size)
    density = regular_graph_bound(inp)
    raw = density * size
    value = raw.numerator // raw.denominator if raw >= 0 else 0
    return BoundResult(
        value=value,
        raw=raw,
        formula_id="eigenvalue",
        assumptions=tuple(assumptions),
        vacuous=inp.vacuous,
    )


def mds_interval(n: int, q: int) -> tuple[int, Fraction]:
    """(q^(n-1), q^n / (q - 1 + 1/n)): the range of the maximum n-fold 1-packing."""
    _validate_params(n, q)
    lower = q ** (n - 1)
    upper = Fraction(q**n * n, n * (q - 1) + 1)
    return lower, upper


# ---------------------------------------------------------------------------
# linear-programming bounds, binary case
# ---------------------------------------------------------------------------

def lp_bound(n: int, lam: int) -> BoundResult:
    """LP bound on binary lambda-fold 1-packings of length n (n >= 2)."""
    if type(n) is not int or n < 2:
        raise ValueError(f"the LP bound needs an int n >= 2, got n={n!r}")
    _check_lambda(lam)
    sigma = lam % 2
    two_n = 1 << n
    mod = n % 4
    if mod == 0:
        raw = Fraction(two_n * (lam * n + 3 * lam - 4 + sigma), n * (n + 4))
        case = "a"
    elif mod == 1:
        raw = Fraction(two_n * (lam * n + lam - 2), (n - 1) * (n + 3))
        case = "b"
    elif mod == 2:
        raw = Fraction(two_n * (lam * n + lam - 2 + sigma), n * (n + 2))
        case = "c"
    else:
        raw = Fraction(two_n * lam, n + 1)
        case = "d"
    return BoundResult(raw.numerator // raw.denominator, raw, f"lp({case})")


def lp_bound_even(n: int, lam: int) -> BoundResult:
    """LP bound on even-weight binary lambda-fold 1-packings (n >= 3).

    Puncturing one coordinate maps an even-weight packing of length n
    onto a plain packing of length n - 1, and appending a parity bit maps
    it back, so this is ``lp_bound(n - 1, lam)`` under its own name.
    """
    if type(n) is not int or n < 3:
        raise ValueError(f"the even-weight LP bound needs an int n >= 3, got n={n!r}")
    plain = lp_bound(n - 1, lam)
    return BoundResult(plain.value, plain.raw, plain.formula_id.replace("lp(", "lp_even(", 1))


# ---------------------------------------------------------------------------
# unitrade minima and extremal profiles
# ---------------------------------------------------------------------------

def unitrade_min_cardinality(n: int, extended: bool) -> int:
    """Known minimum cardinality of a nonempty 1-perfect unitrade.

    Extended unitrades need even n and the minimum is 2^(n/2), attained
    by the diagonal.  Plain unitrades need odd n and the minimum is
    2^((n+1)/2), attained by the punctured diagonal.  Both are bipartite
    (the conflict graph of either is a cube), so bipartiteness does not
    change either minimum.
    """
    _validate_params(n, 2)
    if extended:
        if n % 2:
            raise ValueError("extended unitrades of odd length are empty; no minimum is defined")
        return 1 << (n // 2)
    if n % 2 == 0:
        raise ValueError("the stated plain-unitrade minima apply to odd n only")
    return 1 << ((n + 1) // 2)


def forced_distance_profile(n: int, lam: int) -> dict[int, int]:
    """Forced B_i values of an even-weight packing attaining the LP bound.

    Equality in cases (a)-(c) pins B_0 = 1 and B_2 = floor(n(lam-1)/2);
    case (a) additionally pins B_(n-1) = lam.  Case (d) inputs carry no
    forced profile and are rejected.
    """
    bound = lp_bound_even(n, lam)
    if bound.formula_id.endswith("(d)"):
        raise ValueError(f"n={n} falls in case (d): no forced distance profile")
    profile = {0: 1, 2: n * (lam - 1) // 2}
    if bound.formula_id.endswith("(a)"):
        profile[n - 1] = lam
    return profile
