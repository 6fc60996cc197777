"""Closed-form equilibrium quantities for designs with s isolated nodes.

Everything here is a pure function of (n, m, s) and a utility spec, where n
is the total node count, s the number of isolated nodes and m the number of
protected leaves in the connected part.  The quantities:

* topology_threshold: decides cycle (threshold >= beta) versus
  core-periphery (threshold < beta) for the connected part;
* component_guarantee / singleton_guarantee: seeker payoff guarantees when
  the hider stays in the connected part / in the isolated nodes;
* the seek and hide mixing weights that equalize those guarantees;
* seeker_bound and best_seeker_bound: the seeker's guaranteed payoff for
  given (m, s) and the exact game bound over all networks with s isolated
  nodes; the hider's equilibrium payoff on an optimal network is minus the
  minimum of best_seeker_bound over s;
* optimal_singleton_counts: the argmin set of that minimum.

Several identities that the formulas must satisfy (branch agreement, equal
guarantees at the mixing weights) are asserted inline: they are cheap, and a
violation would mean a transcription bug rather than a user error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .payoff import UtilitySpec

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


def capture_adjusted_value(n: int, s: int, u: UtilitySpec) -> Fraction:
    """f(n-s-1) + beta, the swing between escaping and being caught."""
    return u.value(n - s - 1) + u.beta


@lru_cache(maxsize=65536)
def topology_threshold(n: int, s: int, u: UtilitySpec) -> Fraction:
    """(n-s-3) f(n-s-1) - (n-s-2) f(n-s-2).

    Positive and large when f grows fast near n-s, which favors keeping the
    connected part intact (a cycle); small or negative when the marginal
    node is worth little, which favors hiding behind leaves.

    Memoized: it is evaluated inside every bound for every leaf count but
    depends only on (n, s, u).
    """
    x = n - s
    if x < 3:
        raise DomainError(f"threshold needs n-s >= 3, got {x}")
    t = (x - 3) * u.value(x - 1) - (x - 2) * u.value(x - 2)
    d_form = (
        (x - 3) * capture_adjusted_value(n, s, u)
        - (x - 2) * capture_adjusted_value(n - 1, s, u)
        + u.beta
    )
    assert t == d_form
    return t


@lru_cache(maxsize=65536)
def component_guarantee(n: int, m: int, s: int, u: UtilitySpec, r_empty: bool) -> Fraction:
    """Seeker's guaranteed payoff when the hider stays in the connected part.

    With the residual set empty (every non-isolated node is a protected leaf
    or its attachment) the guarantee is beta/m - ((m-1)/m) f(n-s-2); in
    general it is the equalized form below.  Both branches agree where both
    apply, asserted here.
    """
    _check_context(n, m, s)
    x = n - s
    if x < 4:
        raise DomainError(f"component guarantee needs n-s >= 4, got {x}")
    if r_empty:
        if 2 * m != x:
            raise DomainError("empty residual set forces n-s = 2m")
        if m == 0:
            raise DomainError("empty residual set with m=0 means no nodes at all")
        out = u.beta / m - Fraction(m - 1, m) * u.value(x - 2)
        assert out == _component_guarantee_general(n, m, s, u)
        return out
    out = _component_guarantee_general(n, m, s, u)
    if 2 * m == x:
        assert out == u.beta / m - Fraction(m - 1, m) * u.value(x - 2)
    return out


def _component_guarantee_general(n, m, s, u):
    x = n - s
    beta = u.beta
    d = capture_adjusted_value(n, s, u)
    d1 = capture_adjusted_value(n - 1, s, u)
    span = 3 * d - 2 * d1
    t = topology_threshold(n, s, u)
    return (d * d1 / span) * (3 * (beta - t) / (m * span + x * d1) - ONE) + beta


@lru_cache(maxsize=65536)
def singleton_guarantee(s: int, u: UtilitySpec) -> Fraction:
    """beta/s - (1 - 1/s) f(1): seeker payoff against hiding among s
    isolated nodes when seeking them uniformly."""
    if s < 1:
        raise DomainError("singleton guarantee needs s >= 1")
    return u.beta / s - (ONE - Fraction(1, s)) * u.value(1)


@lru_cache(maxsize=65536)
def interior_seek_weight(n: int, m: int, s: int, u: UtilitySpec) -> Fraction:
    """Weight on the residual set that equalizes the capture probability
    between the residual set and the leaf attachments."""
    _check_context(n, m, s)
    r = n - s - 2 * m
    if r == 0 and m == 0:
        raise DomainError("no non-isolated nodes")
    hi = u.value(n - s - 1) + u.beta
    lo = u.value(n - s - 2) + u.beta
    return r * lo / (3 * m * hi + r * lo)


def guarantee_hiding_residual(n, m, s, u, lam_r, lam_s) -> Fraction:
    """Seeker payoff guarantee when the hider is in the residual set."""
    x = n - s
    r = x - 2 * m
    if r <= 0:
        raise DomainError("residual guarantee needs a nonempty residual set")
    inner = lam_r * (
        Fraction(3, r) * u.beta - (ONE - Fraction(3, r)) * u.value(x - 1)
    ) - (ONE - lam_r) * u.value(x - 2)
    return (ONE - lam_s) * inner - lam_s * u.value(x)


def guarantee_hiding_attachments(n, m, s, u, lam_r, lam_s) -> Fraction:
    """Seeker payoff guarantee when the hider is on a protected leaf or its
    attachment node."""
    x = n - s
    if m < 1:
        raise DomainError("attachment guarantee needs m >= 1")
    inner = (ONE - lam_r) * (
        Fraction(1, m) * u.beta - (ONE - Fraction(1, m)) * u.value(x - 2)
    ) - lam_r * u.value(x - 1)
    return (ONE - lam_s) * inner - lam_s * u.value(x)


def residual_seek_weight(n: int, m: int, s: int, u: UtilitySpec, r_empty: bool) -> Fraction:
    """The seeker's conditional weight on the residual set: zero when that
    set is empty, otherwise the equalizing interior weight."""
    _check_context(n, m, s)
    if n - s < 4:
        raise DomainError(f"residual seek weight needs n-s >= 4, got {n - s}")
    if r_empty:
        if 2 * m != n - s:
            raise DomainError("empty residual set forces n-s = 2m")
        return ZERO
    lam = interior_seek_weight(n, m, s, u)
    a = component_guarantee(n, m, s, u, r_empty=False)
    # The weight must equalize the two component-side guarantees exactly.
    assert guarantee_hiding_residual(n, m, s, u, lam, ZERO) == a
    if m >= 1:
        assert guarantee_hiding_attachments(n, m, s, u, lam, ZERO) == a
    return lam


@lru_cache(maxsize=65536)
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
    a = component_guarantee(n, m, s, u, r_empty=(n - s == 2 * m))
    f1 = u.value(1)
    if a > -f1:
        return (a + f1) / (a + singleton_guarantee(s, u) + f1 + u.value(n - s))
    return ZERO


@lru_cache(maxsize=65536)
def seeker_bound(n: int, m: int, s: int, u: UtilitySpec) -> Fraction:
    """The payoff the seeker secures on any network with s isolated nodes
    and m protected leaves."""
    if s == n:
        return singleton_guarantee(n, u)
    _reject_near_full(n, s)
    _check_context(n, m, s)
    a = component_guarantee(n, m, s, u, r_empty=(n - s == 2 * m))
    f1 = u.value(1)
    fns = u.value(n - s)
    if s >= 1 and a > -f1:
        b = singleton_guarantee(s, u)
        q = (a * b - f1 * fns) / (a + b + f1 + fns)
    else:
        q = a
    lam_s = singleton_seek_weight(n, m, s, u)
    assert q == (ONE - lam_s) * a - lam_s * fns
    return q


def design_mixing_m(n: int, s: int, u: UtilitySpec) -> int:
    """The leaf count the bound is evaluated at: none in the cycle regime,
    the parity-maximal count in the core-periphery regime."""
    x = n - s
    if topology_threshold(n, s, u) >= u.beta:
        return 0
    return x // 2 if x % 2 == 0 else (x - 3) // 2


@lru_cache(maxsize=65536)
def best_seeker_bound(n: int, s: int, u: UtilitySpec) -> Fraction:
    """The exact value bound for networks with s isolated nodes: the seeker
    bound evaluated at the regime- and parity-appropriate leaf count."""
    if s == n:
        return singleton_guarantee(n, u)
    _reject_near_full(n, s)
    if not 0 <= s <= n - 4:
        raise DomainError(f"invalid singleton count s={s} for n={n}")
    return seeker_bound(n, design_mixing_m(n, s, u), s, u)


def branch_component_guarantee(n: int, s: int, u: UtilitySpec) -> Fraction:
    """Component guarantee at the design leaf count (written Abar below)."""
    m = design_mixing_m(n, s, u)
    return component_guarantee(n, m, s, u, r_empty=(n - s == 2 * m))


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
    assert seek_orphans == -component_guarantee(
        n, (x - 3) // 2, s, u, r_empty=False
    )
    return mu


def crowded_cp_bounds(n: int, s: int, u: UtilitySpec) -> tuple[Fraction, Fraction]:
    """Seeker guarantees on odd-sized core-periphery parts packed with the
    maximum (n-s-1)/2 leaves instead of (n-s-3)/2.

    Returns (attachment-side guarantee, overall guarantee); both strictly
    exceed their counterparts at the design leaf count, which is why the
    packed layout is never optimal.
    """
    x = n - s
    if x % 2 == 0:
        raise DomainError(f"crowded bounds need odd n-s, got {x}")
    if x < 5:
        raise DomainError(f"crowded bounds need n-s >= 5, got {x}")
    beta = u.beta
    f_cut = u.value(x - 2)
    xval = 2 * beta / (x - 1) - (ONE - Fraction(2, x - 1)) * f_cut
    f1 = u.value(1)
    if s >= 1 and xval > -f1:
        yval = singleton_blend(xval, s, n, u)
    else:
        yval = xval
    a = component_guarantee(n, (x - 3) // 2, s, u, r_empty=False)
    diff = (
        2 * (u.value(x - 1) - f_cut) * (f_cut + beta) * (x - 3)
    ) / ((x - 1) * ((x - 3) * u.value(x - 1) + 2 * f_cut + (x - 1) * beta))
    assert xval - a == diff and diff > 0
    q = seeker_bound(n, (x - 3) // 2, s, u)
    assert yval > q
    return xval, yval


def singleton_blend(z: Fraction, s: int, n: int, u: UtilitySpec) -> Fraction:
    """Blend a component-side guarantee z with the singleton side.

    Identity below -f(1) (no singleton mass is ever mixed in); above it the
    equalized value.  Strictly increasing in z.
    """
    if s < 1:
        raise DomainError("singleton blend needs s >= 1")
    z = Fraction(z)
    f1 = u.value(1)
    if z <= -f1:
        return z
    b = singleton_guarantee(s, u)
    fns = u.value(n - s)
    return (b * z - f1 * fns) / (z + b + fns + f1)


def optimal_singleton_counts(n: int, u: UtilitySpec) -> tuple[tuple[int, ...], Fraction]:
    """All isolated-node counts minimizing the seeker's bound, plus the
    minimum.  The hider's optimal payoff is minus that minimum."""
    if n < 1:
        raise DomainError("need n >= 1")
    domain = list(range(0, n - 3)) if n >= 4 else []
    domain.append(n)
    values = {s: best_seeker_bound(n, s, u) for s in domain}
    best = min(values.values())
    winners = tuple(s for s in domain if values[s] == best)
    return winners, best


def linear_even_bound(n: int, s: int, u: UtilitySpec) -> Fraction:
    """For linear f: the seeker bound at the maximal leaf count (n-s)/2,
    treating m as continuous, in the closed form that extends to all
    0 <= s <= n.  Used for the shape analysis of the bound in s."""
    if u.family != "linear":
        raise DomainError("linear_even_bound needs a linear utility")
    if not 0 <= s <= n:
        raise DomainError(f"need 0 <= s <= n, got s={s}")
    slope = u.params[0]
    if s == n:
        return singleton_guarantee(n, u)
    bt = u.beta / slope
    x = n - s
    a_tilde = slope * (2 * (bt - 2) / x + 4 - x)
    num = s * (2 * (bt - 2) - x * (x - 5))
    den = num + x * (s * (x - 1) + bt + 1)
    if den == 0:
        raise ArithmeticError(f"degenerate blend weight at n={n}, s={s}")
    rho = num / den
    ab = (ONE - rho) * a_tilde - rho * slope * x
    if s == 0:
        assert ab == a_tilde
    if s >= 1 and a_tilde > -u.value(1):
        assert ab == singleton_blend(a_tilde, s, n, u)
    if x % 2 == 0 and 0 <= s <= n - 4:
        assert component_guarantee(n, x // 2, s, u, r_empty=True) == a_tilde
    return ab


@dataclass(frozen=True)
class ValueReport:
    """Every closed-form quantity for one (n, m, s) context; entries are None
    where the context leaves them undefined."""

    n: int
    s: int
    m: int
    threshold: Fraction | None
    component: Fraction | None
    singleton: Fraction | None
    residual_weight: Fraction | None
    singleton_weight: Fraction | None
    bound: Fraction
    best_bound: Fraction


def value_report(n: int, m: int, s: int, u: UtilitySpec) -> ValueReport:
    if s == n:
        return ValueReport(
            n=n,
            s=s,
            m=0,
            threshold=None,
            component=None,
            singleton=singleton_guarantee(n, u),
            residual_weight=None,
            singleton_weight=ONE,
            bound=singleton_guarantee(n, u),
            best_bound=best_seeker_bound(n, s, u),
        )
    r_empty = n - s == 2 * m
    return ValueReport(
        n=n,
        s=s,
        m=m,
        threshold=topology_threshold(n, s, u),
        component=component_guarantee(n, m, s, u, r_empty),
        singleton=singleton_guarantee(s, u) if s >= 1 else None,
        residual_weight=residual_seek_weight(n, m, s, u, r_empty),
        singleton_weight=singleton_seek_weight(n, m, s, u),
        bound=seeker_bound(n, m, s, u),
        best_bound=best_seeker_bound(n, s, u),
    )


def value_table_rows(n: int, u: UtilitySpec):
    """All value reports for one n: every admissible s and leaf count."""
    rows = []
    if n >= 4:
        for s in range(0, n - 3):
            for m in range(0, (n - s) // 2 + 1):
                rows.append(value_report(n, m, s, u))
    rows.append(value_report(n, 0, n, u))
    return rows
