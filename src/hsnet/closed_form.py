"""Closed-form equilibrium quantities for designs with s isolated nodes.

Everything here is a pure function of (n, m, s) and a utility spec, where n
is the total node count, s the number of isolated nodes and m the number of
protected leaves in the connected part.  The quantities:

* topology_threshold: decides cycle (threshold >= beta) versus
  core-periphery (threshold < beta) for the connected part;
* component_guarantee / singleton_guarantee: seeker payoff guarantees when
  the hider stays in the connected part / in the isolated nodes;
* the seek and hide mixing weights that equalize those guarantees;
* the seeker bound for given (m, s), and best_seeker_bound, the exact game
  bound over all networks with s isolated nodes; the hider's equilibrium
  payoff on an optimal network is minus the minimum of best_seeker_bound
  over s;
* optimal_singleton_counts: the argmin set of that minimum;
* value_table_rows: all of these for every (s, m) of one n.

The threshold, both guarantees, both seek weights of the seeker and both
bounds come from one integer kernel, fed beta, f(1), f(x), f(x-1) and f(x-2)
(x = n - s) as integers over their own lcm D; each quantity is an integer
numerator over a positive integer multiple of D.  One s reads them from
``UtilitySpec.integer_table``, the payoffs' one table, and value_table_rows
builds all of that s's rows from its one table; the scan over s makes one
pass, reads f once per size, and compares candidates by cross-multiplying
with one Fraction built, for the minimum.

Several identities that the formulas must satisfy (branch agreement, equal
guarantees at the mixing weights) are asserted inline, as cross-multiplied
integer equalities where the kernel computes them: they are cheap, and a
violation would mean a transcription bug rather than a user error.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .payoff import UtilitySpec
from .rationals import over_common_denominator
from .records import Record

ZERO = Fraction(0)
ONE = Fraction(1)


class DomainError(ValueError):
    """Arguments outside the range where a quantity is defined."""


def _check_context(n: int, m: int, s: int):
    if not 0 <= s <= n:
        raise DomainError(f"need 0 <= s <= n, got s={s}, n={n}")
    if not 0 <= m <= (n - s) // 2:
        raise DomainError(f"need 0 <= m <= (n-s)/2, got m={m}, n-s={n - s}")


def _reject_near_full(n: int, s: int):
    if s in (n - 3, n - 2, n - 1):
        raise DomainError(
            f"s={s} is excluded: a design leaves at least 4 connected nodes or none"
        )


# -- the integer kernel -------------------------------------------------------


def _threshold(x: int, b: int, fx1: int, fx2: int) -> int:
    """T = (x-3) f(x-1) - (x-2) f(x-2), over D."""
    t = (x - 3) * fx1 - (x - 2) * fx2
    # The d-form, with d = f(x-1) + beta and d1 = f(x-2) + beta.
    assert t == (x - 3) * (fx1 + b) - (x - 2) * (fx2 + b) + b
    return t


def _component(x: int, m: int, b: int, fx1: int, fx2: int, t: int) -> tuple:
    """(a, k) with the component guarantee A = a / (k D) and k > 0, given
    the threshold T = t / D from _threshold:

        A = (d d1 / span) (3 (beta - T) / (m span + x d1) - 1) + beta,

    where d = f(x-1) + beta, d1 = f(x-2) + beta and span = 3 d - 2 d1.
    """
    d, d1 = fx1 + b, fx2 + b
    span = 3 * d - 2 * d1
    e = m * span + x * d1
    k = span * e
    a = d * d1 * (3 * (b - t) - e) + b * k
    if 2 * m == x:
        # With the residual set empty, A = beta/m - ((m-1)/m) f(x-2) too.
        assert a * m == (b - (m - 1) * fx2) * k
    return a, k


def _bound(s: int, b: int, f1: int, fx: int, a: int, k: int) -> tuple:
    """(w, g, q): the singleton seek weight lambda_S = w / g and the seeker
    bound Q = q / (g D), with g > 0, given A = a / (k D) from _component.

    With isolated nodes and A > -f(1), the seeker blends in the singleton
    guarantee B = (beta - (s-1) f(1)) / s:

        lambda_S = (A + f(1)) / (A + B + f(1) + f(x)),
        Q = (A B - f(1) f(x)) / (A + B + f(1) + f(x));

    otherwise lambda_S = 0 and Q = A.
    """
    if s >= 1 and a + f1 * k > 0:
        w = s * (a + f1 * k)
        g = s * a + k * (b + f1 + s * fx)
        q = a * (b - (s - 1) * f1) - s * k * f1 * fx
    else:
        w, g, q = 0, k, a
    # Q = (1 - lambda_S) A - lambda_S f(x).
    assert q * k == (g - w) * a - w * fx * k
    return w, g, q


def _singleton(s: int, b: int, f1: int) -> int:
    """The singleton guarantee B = (beta - (s-1) f(1)) / s, over s D."""
    return b - (s - 1) * f1


def _rho(m: int, r: int, d: int, d1: int) -> tuple:
    """(p, h) with the interior seek weight rho = p / h = r d1 / (3 m d + r d1),
    for m leaves and r residual nodes, where d = f(x-1) + beta and
    d1 = f(x-2) + beta over a common denominator."""
    return r * d1, 3 * m * d + r * d1


def _best(x: int, s: int, b: int, f1: int, fx: int, fx1: int, fx2: int) -> tuple:
    """(q, g) of the best seeker bound Q = q / (g D) for s isolated nodes and
    x >= 4 others: no leaves as a cycle, else the parity-maximal count."""
    t = _threshold(x, b, fx1, fx2)
    m = 0 if t >= b else (x - 3 * (x % 2)) // 2  # x/2 when x is even, (x-3)/2 when odd
    w, g, q = _bound(s, b, f1, fx, *_component(x, m, b, fx1, fx2, t))
    return q, g


# -- the quantities -----------------------------------------------------------


def topology_threshold(n: int, s: int, u: UtilitySpec) -> Fraction:
    """(n-s-3) f(n-s-1) - (n-s-2) f(n-s-2).

    Positive and large when f grows fast near n-s, which favors keeping the
    connected part intact (a cycle); small or negative when the marginal
    node is worth little, which favors hiding behind leaves.
    """
    x = n - s
    if x < 3:
        raise DomainError(f"threshold needs n-s >= 3, got {x}")
    (nb, fx1, fx2), den = u.integer_table((0, x - 1, x - 2))
    return Fraction(_threshold(x, -nb, fx1, fx2), den)


def component_guarantee(n: int, m: int, s: int, u: UtilitySpec) -> Fraction:
    """Seeker's guaranteed payoff when the hider stays in the connected part.

    With the residual set empty (2m = n-s: every non-isolated node is a
    protected leaf or its attachment) the guarantee is
    beta/m - ((m-1)/m) f(n-s-2); in general it is the equalized form of
    ``_component``.  Both branches agree where both apply, asserted there.
    """
    _check_context(n, m, s)
    x = n - s
    if x < 4:
        raise DomainError(f"component guarantee needs n-s >= 4, got {x}")
    (nb, fx1, fx2), den = u.integer_table((0, x - 1, x - 2))
    a, k = _component(x, m, -nb, fx1, fx2, _threshold(x, -nb, fx1, fx2))
    return Fraction(a, k * den)


def singleton_guarantee(s: int, u: UtilitySpec) -> Fraction:
    """beta/s - (1 - 1/s) f(1): seeker payoff against hiding among s
    isolated nodes when seeking them uniformly."""
    if s < 1:
        raise DomainError("singleton guarantee needs s >= 1")
    (nb, f1), den = u.integer_table((0, 1))
    return Fraction(_singleton(s, -nb, f1), s * den)


def interior_seek_weight(n: int, m: int, s: int, u: UtilitySpec) -> Fraction:
    """Weight on the residual set that equalizes the capture probability
    between the residual set and the leaf attachments."""
    _check_context(n, m, s)
    x = n - s
    r = x - 2 * m
    if r == 0 and m == 0:
        raise DomainError("no non-isolated nodes")
    (d, d1), _ = over_common_denominator((u.value(x - 1) + u.beta, u.value(x - 2) + u.beta))
    return Fraction(*_rho(m, r, d, d1))


def singleton_seek_weight(n: int, m: int, s: int, u: UtilitySpec) -> Fraction:
    """The seeker's weight on isolated nodes: 1 with nothing else to seek, 0
    with no isolated nodes, otherwise the blend making the singleton-side
    guarantee match the component side (when that is profitable)."""
    if s == n:
        return ONE
    if s == 0:
        return ZERO
    if not 0 <= s <= n - 4:
        raise DomainError(f"singleton seek weight needs s <= n-4 or s = n, got s={s}")
    _check_context(n, m, s)
    x = n - s
    (nb, fx1, fx2, f1, fx), _ = u.integer_table((0, x - 1, x - 2, 1, x))
    a, k = _component(x, m, -nb, fx1, fx2, _threshold(x, -nb, fx1, fx2))
    w, g, _ = _bound(s, -nb, f1, fx, a, k)
    return Fraction(w, g)


def best_seeker_bound(n: int, s: int, u: UtilitySpec) -> Fraction:
    """The exact value bound for networks with s isolated nodes: the seeker
    bound evaluated at the regime- and parity-appropriate leaf count, on
    its own integer table."""
    if s == n:
        return singleton_guarantee(n, u)
    _reject_near_full(n, s)
    if not 0 <= s <= n - 4:
        raise DomainError(f"invalid singleton count s={s} for n={n}")
    x = n - s
    (nb, fx1, fx2, f1, fx), den = u.integer_table((0, x - 1, x - 2, 1, x))
    q, g = _best(x, s, -nb, f1, fx, fx1, fx2)
    return Fraction(q, g * den)


def component_hide_weight(n: int, s: int, u: UtilitySpec, abar: Fraction) -> Fraction:
    """Probability the hider assigns to the connected part.

    One when there are no isolated nodes or the component is strictly better
    than f(1); otherwise the blend equalizing the hider's two guarantees.
    """
    f1 = u.value(1)
    if s == 0 or abar <= -f1:
        return ONE
    b = singleton_guarantee(s, u)
    fns = u.value(n - s)
    kappa = (b + f1) / (abar + b + fns + f1)
    # Both hider guarantees agree at this weight, and match the game bound.
    seek_singles = kappa * fns - (ONE - kappa) * b
    seek_component = -kappa * abar + (ONE - kappa) * f1
    assert seek_singles == seek_component
    blend = (abar * b - f1 * fns) / (abar + b + f1 + fns)
    assert seek_component == -blend
    return kappa


def periphery_hide_weight(n: int, s: int, u: UtilitySpec) -> Fraction:
    """Conditional weight on periphery leaves (versus the middle orphan) in
    the odd core-periphery design."""
    x = n - s
    if x % 2 == 0:
        raise DomainError(f"periphery hide weight needs odd n-s, got {x}")
    if x < 5:
        raise DomainError(f"odd core-periphery design needs n-s >= 5, got {x}")
    beta = u.beta
    f_keep = u.value(x - 1)
    f_cut = u.value(x - 2)
    mu = ((x - 3) * f_cut + (x - 3) * beta) / (
        (x - 3) * f_keep + 2 * f_cut + (x - 1) * beta
    )
    assert ZERO <= mu <= ONE
    seek_orphans = mu * f_keep - (ONE - mu) * beta
    seek_attachments = (
        mu * (-Fraction(2, x - 3) * beta + (ONE - Fraction(2, x - 3)) * f_cut)
        + (ONE - mu) * f_cut
    )
    assert seek_orphans == seek_attachments
    assert seek_orphans == -component_guarantee(n, (x - 3) // 2, s, u)
    return mu


def optimal_singleton_counts(n: int, u: UtilitySpec) -> tuple[tuple[int, ...], Fraction]:
    """All isolated-node counts minimizing the seeker's bound, plus the
    minimum.  The hider's optimal payoff is minus that minimum.  f is read
    at 1..n (1 alone when n < 4), and each s's five values are scaled over
    their own lcm in line: per s, ``over_common_denominator`` doubles the
    scan's time."""
    if type(n) is not int or n < 1:
        raise DomainError(f"need an int n >= 1, got {n!r}")
    f = [u.evaluate(x) for x in range(1, n + 1 if n >= 4 else 2)]  # f[x - 1] = f(x)
    nums, dens = [v.numerator for v in f], [v.denominator for v in f]
    bn, bd, f1n, f1d = u.beta.numerator, u.beta.denominator, nums[0], dens[0]
    d0 = lcm(bd, f1d)
    winners, best_q, best_d = [n], _singleton(n, bn * (d0 // bd), f1n * (d0 // f1d)), n * d0
    for s in range(n - 3):
        x = n - s
        dx, dx1, dx2 = dens[x - 1], dens[x - 2], dens[x - 3]
        d = lcm(d0, dx, dx1, dx2)
        q, g = _best(x, s, bn * (d // bd), f1n * (d // f1d), nums[x - 1] * (d // dx),
                     nums[x - 2] * (d // dx1), nums[x - 3] * (d // dx2))
        g *= d
        if q * best_d < best_q * g:
            winners, best_q, best_d = [s], q, g
        elif q * best_d == best_q * g:
            winners.append(s)
    return tuple(sorted(winners)), Fraction(best_q, best_d)


class ValueReport(Record):
    """Every closed-form quantity for one (n, m, s) context; entries are None
    where the context leaves them undefined."""

    __slots__ = _fields = (
        "n", "s", "m", "threshold", "component", "singleton", "residual_weight",
        "singleton_weight", "bound", "best_bound",
    )


def value_table_rows(n: int, u: UtilitySpec) -> list:
    """All value reports for one n: each s in 0..n-4 with every leaf count,
    then s = n.  Each s reads one integer table, and all of its rows come
    from the kernel."""
    rows = []
    for s in range(n - 3):
        x = n - s
        (nb, f1, fx, fx1, fx2), den = u.integer_table((0, 1, x, x - 1, x - 2))
        b, d, d1 = -nb, fx1 - nb, fx2 - nb
        t = _threshold(x, b, fx1, fx2)
        best_q, best_g = _best(x, s, b, f1, fx, fx1, fx2)
        threshold, best = Fraction(t, den), Fraction(best_q, best_g * den)
        singleton = Fraction(_singleton(s, b, f1), s * den) if s else None
        for m in range(x // 2 + 1):
            r = x - 2 * m
            a, k = _component(x, m, b, fx1, fx2, t)
            w, g, q = _bound(s, b, f1, fx, a, k)
            p, h = _rho(m, r, d, d1)
            # At rho = p / h the seeker secures A = a / (k D) both against a
            # hider in the residual set (found with chance 3/r when the
            # seeker searches it, with weight rho) and against one on a leaf
            # or its attachment (found with chance 1/m, with weight 1 - rho).
            if r:
                assert (p * (3 * b - (r - 3) * fx1) - r * (h - p) * fx2) * k == a * r * h
            if m:
                assert ((h - p) * (b - (m - 1) * fx2) - m * p * fx1) * k == a * m * h
            rows.append(ValueReport(n, s, m, threshold, Fraction(a, k * den), singleton,
                                    Fraction(p, h), Fraction(w, g), Fraction(q, g * den), best))
    b = singleton_guarantee(n, u)
    rows.append(ValueReport(n, n, 0, None, None, b, None, ONE, b, b))
    return rows
