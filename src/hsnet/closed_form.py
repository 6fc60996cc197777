"""Closed-form equilibrium quantities for designs with s isolated nodes.

Everything here is a pure function of (n, s, m) and a utility spec, where n
is the total node count, s the number of isolated nodes and m the number of
protected leaves in the connected part.  A context is an int n >= 1 with
0 <= s <= n-4 or s = n, and 0 <= m <= (n-s)/2; ``_context`` refuses any
other with a DomainError; it is the one context rule.  The public functions:

* value_row: every quantity of one context, as a ValueReport: the
  threshold T, the seeker's guarantees A and B when the hider stays in the
  connected part and among the isolated nodes, the seeker's weights rho on
  the residual set and lambda_S on the isolated nodes, the seeker bound Q
  at this m and the best bound Qbar over m, and the hider's weights kappa
  on the connected part and mu on the periphery of an odd layout.  The
  hider's equilibrium payoff on an optimal network is minus the minimum of
  Qbar over s;
* value_table_rows: the rows of every context of one n;
* optimal_singleton_counts: the argmin set of that minimum, and the minimum;
* design_row: the one decision of the optimal design, as its row: the least
  optimal s, with no leaves (a cycle) when T >= beta, else the maximal leaf
  count (a maximal core-periphery part).  These two claim an optimum over
  every graph, and do so for n >= 4 only; a smaller n is a DomainError;
* maximal_leaf_count: that count, the one statement of the layout's rule,
  read by the scan, the design builder and the verifier's recognizer.

Every quantity comes from one integer kernel, fed beta, f(1), f(x), f(x-1)
and f(x-2) (x = n - s) as integers over their own lcm D; each is an integer
numerator over a positive integer multiple of D.  The rows of one s read
them from one ``UtilitySpec.integer_table``, the payoffs' one table; the
scan over s makes one pass, reads f once per size, and compares candidates
by cross-multiplying with one Fraction built, for the minimum.

The identities that the formulas must satisfy (branch agreement, each
player's guarantees equal at its mixing weight) are asserted inline as
cross-multiplied integer equalities: they are cheap, and a violation would
mean a transcription bug rather than a user error.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .payoff import UtilitySpec
from .records import Record

ZERO = Fraction(0)
ONE = Fraction(1)


class DomainError(ValueError):
    """Arguments outside the range where a quantity is defined."""


def _context(n: int, s: int, m: int):
    """Refuse (n, s, m) unless it is a design context.  ``_context(n, n, 0)``
    checks n alone: every valid n has the all-singletons context."""
    if type(n) is not int or n < 1:
        raise DomainError(f"need an int n >= 1, got n={n!r}")
    if type(s) is not int or not (0 <= s <= n - 4 or s == n):
        raise DomainError(f"need 0 <= s <= n-4 or s = n, got s={s!r}, n={n}")
    if type(m) is not int or not 0 <= m <= (n - s) // 2:
        raise DomainError(f"need 0 <= m <= (n-s)/2, got m={m!r}, n-s={n - s}")


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


def _kappa(s: int, b: int, f1: int, fx: int, a: int, k: int, g: int, q: int) -> int:
    """The hider's weight on the connected part, kappa = p / g, where _bound
    blends (w > 0) and gave g and q; kappa = 1 where it does not:

        kappa = (B + f(1)) / (A + B + f(1) + f(x)) = k (beta + f(1)) / g.
    """
    p = k * (b + f1)
    # At kappa the seeker earns -Q both when it seeks in the part (A there,
    # f(1) off it) and when it seeks the isolated nodes (B there, f(x) off).
    assert (g - p) * f1 * k - p * a == -q * k
    assert p * s * fx - (g - p) * (b - (s - 1) * f1) == -q * s
    return p


def _singleton(s: int, b: int, f1: int) -> int:
    """The singleton guarantee B = (beta - (s-1) f(1)) / s, over s D."""
    return b - (s - 1) * f1


def _rho(m: int, r: int, d: int, d1: int) -> tuple:
    """(p, h) with the interior seek weight rho = p / h = r d1 / (3 m d + r d1),
    for m leaves and r residual nodes, where d = f(x-1) + beta and
    d1 = f(x-2) + beta over a common denominator."""
    return r * d1, 3 * m * d + r * d1


def _mu(x: int, b: int, fx1: int, fx2: int, a: int, k: int) -> tuple:
    """(p, h) with the hider's periphery weight mu = p / h in the odd layout
    of x nodes, whose middle orphan takes the rest of the part's weight,
    given A = a / (k D) at its maximal leaf count m:

        mu = (x-3) d1 / ((x-3) d + 2 d1),

    where d = f(x-1) + beta and d1 = f(x-2) + beta.
    """
    d, d1 = fx1 + b, fx2 + b
    p, h = (x - 3) * d1, (x - 3) * d + 2 * d1
    assert 0 <= p <= h
    # At mu the seeker earns -A both when it seeks an orphan and when it
    # seeks an attachment node, over h D and over (x-3) h D.
    orphans = p * fx1 - (h - p) * b
    assert orphans * (x - 3) == p * ((x - 5) * fx2 - 2 * b) + (h - p) * (x - 3) * fx2
    assert orphans * k == -a * h
    return p, h


def maximal_leaf_count(x: int) -> int:
    """The leaf count of the maximal core-periphery layout on x >= 4 nodes:
    x/2 when x is even, and (x-3)/2 when odd, where three core nodes are
    orphaned."""
    return x // 2 - x % 2


def _best(x: int, s: int, b: int, f1: int, fx: int, fx1: int, fx2: int) -> tuple:
    """(m, q, g): the leaf count m of the best seeker bound for s isolated
    nodes and x >= 4 others, and that bound Q = q / (g D).  m is 0 (a cycle)
    when T >= beta, else the maximal leaf count."""
    t = _threshold(x, b, fx1, fx2)
    m = 0 if t >= b else maximal_leaf_count(x)
    w, g, q = _bound(s, b, f1, fx, *_component(x, m, b, fx1, fx2, t))
    return m, q, g


# -- the quantities -----------------------------------------------------------


def optimal_singleton_counts(n: int, u: UtilitySpec) -> tuple[tuple[int, ...], Fraction]:
    """All isolated-node counts minimizing the seeker's bound, plus the
    minimum.  The hider's optimal payoff is minus that minimum.  The scan
    claims n >= 4 only: below it a graph of one edge and n - 2 isolated
    nodes, which no context covers, can beat every context, so a smaller n
    is a DomainError.  f is read at 1..n, and each s's five values are
    scaled over their own lcm in line: per s, ``over_common_denominator``
    doubles the scan's time."""
    _context(n, n, 0)
    if n < 4:
        raise DomainError(f"the closed forms claim n >= 4 nodes, got n={n}")
    f = [u.value(x) for x in range(1, n + 1)]  # f[x - 1] = f(x)
    nums, dens = [v.numerator for v in f], [v.denominator for v in f]
    bn, bd, f1n, f1d = u.beta.numerator, u.beta.denominator, nums[0], dens[0]
    d0 = lcm(bd, f1d)
    winners, best_q, best_d = [n], _singleton(n, bn * (d0 // bd), f1n * (d0 // f1d)), n * d0
    for s in range(n - 3):
        x = n - s
        dx, dx1, dx2 = dens[x - 1], dens[x - 2], dens[x - 3]
        d = lcm(d0, dx, dx1, dx2)
        _, q, g = _best(x, s, bn * (d // bd), f1n * (d // f1d), nums[x - 1] * (d // dx),
                     nums[x - 2] * (d // dx1), nums[x - 3] * (d // dx2))
        g *= d
        if q * best_d < best_q * g:
            winners, best_q, best_d = [s], q, g
        elif q * best_d == best_q * g:
            winners.append(s)
    return tuple(sorted(winners)), Fraction(best_q, best_d)


class ValueReport(Record):
    """Every closed-form quantity for one (n, s, m) context; entries are None
    where the context leaves them undefined.  ``hide_weight`` is the hider's
    kappa (0 when s = n), and ``periphery_weight`` its mu, set only in the
    row of an odd layout, m = maximal_leaf_count(n - s) with n - s odd."""

    __slots__ = _fields = (
        "n", "s", "m", "threshold", "component", "singleton", "residual_weight",
        "singleton_weight", "bound", "best_bound", "hide_weight", "periphery_weight",
    )


def _block(n: int, s: int, leaf_counts, u: UtilitySpec) -> list:
    """The rows of s for each m in leaf_counts, or for the leaf count of the
    best bound when leaf_counts is None, from one integer table."""
    if s == n:
        (nb, f1), den = u.integer_table((0, 1))
        b = Fraction(_singleton(n, -nb, f1), n * den)
        return [ValueReport(n, n, 0, None, None, b, None, ONE, b, b, ZERO, None)]
    x = n - s
    (nb, f1, fx, fx1, fx2), den = u.integer_table((0, 1, x, x - 1, x - 2))
    b, d, d1 = -nb, fx1 - nb, fx2 - nb
    t = _threshold(x, b, fx1, fx2)
    best_m, best_q, best_g = _best(x, s, b, f1, fx, fx1, fx2)
    threshold, best = Fraction(t, den), Fraction(best_q, best_g * den)
    singleton = Fraction(_singleton(s, b, f1), s * den) if s else None
    rows = []
    for m in (best_m,) if leaf_counts is None else leaf_counts:
        r = x - 2 * m
        a, k = _component(x, m, b, fx1, fx2, t)
        w, g, q = _bound(s, b, f1, fx, a, k)
        p, h = _rho(m, r, d, d1)
        # At rho = p / h the seeker secures A = a / (k D) both against a
        # hider in the residual set (found with chance 3/r when the seeker
        # searches it, with weight rho) and against one on a leaf or its
        # attachment (found with chance 1/m, with weight 1 - rho).
        if r:
            assert (p * (3 * b - (r - 3) * fx1) - r * (h - p) * fx2) * k == a * r * h
        if m:
            assert ((h - p) * (b - (m - 1) * fx2) - m * p * fx1) * k == a * m * h
        component = Fraction(a, k * den)
        if w:
            lam, bound = Fraction(w, g), Fraction(q, g * den)
            kappa = Fraction(_kappa(s, b, f1, fx, a, k, g, q), g)
        else:  # no blend: lambda_S = 0, Q = A and kappa = 1
            lam, bound, kappa = ZERO, component, ONE
        odd_layout = x % 2 and m == maximal_leaf_count(x)
        mu = Fraction(*_mu(x, b, fx1, fx2, a, k)) if odd_layout else None
        rows.append(ValueReport(n, s, m, threshold, component, singleton, Fraction(p, h),
                                lam, bound, best, kappa, mu))
    return rows


def value_row(n: int, s: int, m: int, u: UtilitySpec) -> ValueReport:
    """Every quantity of the context (n, s, m), from one integer table."""
    _context(n, s, m)
    return _block(n, s, (m,), u)[0]


def value_table_rows(n: int, u: UtilitySpec) -> list:
    """All value reports for one n: each s in 0..n-4 with every leaf count,
    then s = n.  Each s reads one integer table."""
    _context(n, n, 0)
    rows = []
    for s in range(n - 3):
        rows += _block(n, s, range((n - s) // 2 + 1), u)
    return rows + _block(n, n, (0,), u)


def design_row(n: int, u: UtilitySpec) -> ValueReport:
    """The row of the optimal design for n nodes: the least isolated-node
    count minimizing the best bound, at the leaf count that bound is taken
    at (0 for a cycle, and for the all-singletons row s = n)."""
    s = optimal_singleton_counts(n, u)[0][0]
    return _block(n, s, None, u)[0]
