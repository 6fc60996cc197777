"""Closed-form bounds, mixing weights, and their internal identities.

``hsnet.closed_form`` computes every field of a context's row (the
threshold, the guarantees, both players' mixing weights and the bounds) in
one integer kernel.  The ``ref_*`` functions below are the same quantities
as plain Fraction formulas, with the identities the hider's weights satisfy,
kept here as its test oracle (``ref_row`` is a whole row), beside the two
guarantees that the interior seek weight equalizes.  The helpers
after them (the packed odd layout, the singleton blend, the linear
shape curve) serve only the paper's auxiliary claims, checked here and in
the acceptance battery.
"""

import functools
import random
from fractions import Fraction as F

import pytest

import hsnet.closed_form as cf
from hsnet.closed_form import DomainError
from hsnet.payoff import UtilitySpec

from conftest import identity_u, square_u, ratio_u

ONE = F(1)


# -- the Fraction oracle --------------------------------------------------------


def ref_context(n, s, m):
    """Refuse (n, s, m) unless it is a design context: an int n >= 1,
    0 <= s <= n-4 or s = n, and 0 <= m <= (n-s)/2."""
    if type(n) is not int or n < 1:
        raise DomainError(f"need an int n >= 1, got n={n!r}")
    if not (0 <= s <= n - 4 or s == n):
        raise DomainError(f"need 0 <= s <= n-4 or s = n, got s={s!r}")
    if not 0 <= m <= (n - s) // 2:
        raise DomainError(f"need 0 <= m <= (n-s)/2, got m={m!r}")


def ref_capture_adjusted_value(n, s, u):
    """f(n-s-1) + beta, the swing between escaping and being caught."""
    return u.value(n - s - 1) + u.beta


def ref_topology_threshold(n, s, u):
    x = n - s
    if s < 0 or x < 3:
        raise DomainError(f"threshold needs 0 <= s <= n-3, got s={s}, n={n}")
    t = (x - 3) * u.value(x - 1) - (x - 2) * u.value(x - 2)
    d_form = (
        (x - 3) * ref_capture_adjusted_value(n, s, u)
        - (x - 2) * ref_capture_adjusted_value(n - 1, s, u)
        + u.beta
    )
    assert t == d_form
    return t


def ref_singleton_guarantee(s, u):
    if s < 1:
        raise DomainError("singleton guarantee needs s >= 1")
    return u.beta / s - (ONE - F(1, s)) * u.value(1)


def ref_empty_component(m, x, u):
    """The component guarantee with the residual set empty (x = 2m)."""
    return u.beta / m - F(m - 1, m) * u.value(x - 2)


def ref_bounds(n, s, u, leaf_counts):
    """(A, lambda_S, Q) for each leaf count m, 0 <= s <= n-4: the component
    guarantee in its equalized form, the singleton seek weight and the
    seeker bound."""
    x = n - s
    beta, f1, fx = u.beta, u.value(1), u.value(x)
    d = ref_capture_adjusted_value(n, s, u)
    d1 = ref_capture_adjusted_value(n - 1, s, u)
    span = 3 * d - 2 * d1
    t = ref_topology_threshold(n, s, u)
    b = ref_singleton_guarantee(s, u) if s else None
    out = []
    for m in leaf_counts:
        a = (d * d1 / span) * (3 * (beta - t) / (m * span + x * d1) - ONE) + beta
        if s >= 1 and a > -f1:
            lam = (a + f1) / (a + b + f1 + fx)
            q = (a * b - f1 * fx) / (a + b + f1 + fx)
        else:
            lam, q = F(0), a
        out.append((a, lam, q))
    return out


def ref_interior_seek_weight(n, m, s, u):
    """rho, the seeker's weight on the residual set, 0 <= s <= n-4; zero
    when that set is empty (2m = n-s)."""
    r = n - s - 2 * m
    hi = u.value(n - s - 1) + u.beta
    lo = u.value(n - s - 2) + u.beta
    return r * lo / (3 * m * hi + r * lo)


def ref_component_hide_weight(n, s, u, abar):
    """kappa, the hider's weight on the connected part, given its component
    guarantee abar: one when there are no isolated nodes or abar <= -f(1),
    otherwise the blend equalizing the hider's two guarantees."""
    f1 = u.value(1)
    if s == 0 or abar <= -f1:
        return ONE
    b = ref_singleton_guarantee(s, u)
    fns = u.value(n - s)
    kappa = (b + f1) / (abar + b + fns + f1)
    # Both hider guarantees agree at this weight, and match the game bound.
    seek_singles = kappa * fns - (ONE - kappa) * b
    seek_component = -kappa * abar + (ONE - kappa) * f1
    assert seek_singles == seek_component
    blend = (abar * b - f1 * fns) / (abar + b + f1 + fns)
    assert seek_component == -blend
    return kappa


def ref_periphery_hide_weight(n, s, u):
    """mu, the hider's weight on the periphery leaves (versus the middle
    orphan) in the odd core-periphery design."""
    x = n - s
    if x % 2 == 0 or x < 5:
        raise DomainError(f"the odd core-periphery design needs odd n-s >= 5, got {x}")
    beta = u.beta
    f_keep = u.value(x - 1)
    f_cut = u.value(x - 2)
    mu = ((x - 3) * f_cut + (x - 3) * beta) / (
        (x - 3) * f_keep + 2 * f_cut + (x - 1) * beta
    )
    assert 0 <= mu <= ONE
    seek_orphans = mu * f_keep - (ONE - mu) * beta
    seek_attachments = (
        mu * (-F(2, x - 3) * beta + (ONE - F(2, x - 3)) * f_cut)
        + (ONE - mu) * f_cut
    )
    assert seek_orphans == seek_attachments
    assert seek_orphans == -ref_bounds(n, s, u, [(x - 3) // 2])[0][0]
    return mu


def guarantee_hiding_residual(n, m, s, u, lam_r, lam_s):
    """Seeker payoff guarantee when the hider is in the residual set."""
    x = n - s
    r = x - 2 * m
    if r <= 0:
        raise DomainError("residual guarantee needs a nonempty residual set")
    inner = lam_r * (F(3, r) * u.beta - (ONE - F(3, r)) * u.value(x - 1)) - (
        ONE - lam_r) * u.value(x - 2)
    return (ONE - lam_s) * inner - lam_s * u.value(x)


def guarantee_hiding_attachments(n, m, s, u, lam_r, lam_s):
    """Seeker payoff guarantee when the hider is on a protected leaf or its
    attachment node."""
    x = n - s
    if m < 1:
        raise DomainError("attachment guarantee needs m >= 1")
    inner = (ONE - lam_r) * (F(1, m) * u.beta - (ONE - F(1, m)) * u.value(x - 2)) - (
        lam_r * u.value(x - 1))
    return (ONE - lam_s) * inner - lam_s * u.value(x)


def ref_design_mixing_m(n, s, u):
    """The leaf count the bound is evaluated at: none in the cycle regime,
    the parity-maximal count in the core-periphery regime."""
    x = n - s
    if ref_topology_threshold(n, s, u) >= u.beta:
        return 0
    return x // 2 if x % 2 == 0 else (x - 3) // 2


def ref_best_seeker_bound(n, s, u):
    if s == n:
        return ref_singleton_guarantee(n, u)
    if not 0 <= s <= n - 4:
        raise DomainError(f"invalid singleton count s={s} for n={n}")
    return ref_bounds(n, s, u, [ref_design_mixing_m(n, s, u)])[0][2]


def ref_rows(n, s, u, leaf_counts):
    """value_row(n, s, m, u) for each m in leaf_counts, 0 <= s <= n-4 or
    s = n, from the formulas above."""
    if s == n:
        b = ref_singleton_guarantee(n, u)
        return [cf.ValueReport(n, n, 0, None, None, b, None, ONE, b, b, F(0), None)]
    x = n - s
    t, best = ref_topology_threshold(n, s, u), ref_best_seeker_bound(n, s, u)
    single = ref_singleton_guarantee(s, u) if s else None
    return [
        cf.ValueReport(n, s, m, t, a, single, ref_interior_seek_weight(n, m, s, u), lam, q,
                       best, ref_component_hide_weight(n, s, u, a),
                       ref_periphery_hide_weight(n, s, u) if 2 * m == x - 3 else None)
        for m, (a, lam, q) in zip(leaf_counts, ref_bounds(n, s, u, leaf_counts))
    ]


def ref_row(n, s, m, u):
    """value_row(n, s, m, u) from the formulas above."""
    ref_context(n, s, m)
    return ref_rows(n, s, u, [m])[0]


# -- helpers for the auxiliary claims --------------------------------------------


@functools.lru_cache(maxsize=256)
def value_rows(n, u):
    """value_table_rows(n, u) by (s, m); shared, so not to be changed."""
    return {(row.s, row.m): row for row in cf.value_table_rows(n, u)}


def seeker_bound(n, m, s, u):
    """The seeker bound Q for m protected leaves and s isolated nodes: the
    Q cell of that row of value_table_rows (m = 0 when s = n)."""
    return value_rows(n, u)[s, m].bound


def branch_component_guarantee(n, s, u):
    """Component guarantee at the design leaf count (written Abar)."""
    return value_rows(n, u)[s, ref_design_mixing_m(n, s, u)].component


def singleton_blend(z, s, n, u):
    """Blend a component-side guarantee z with the singleton side.

    Identity below -f(1) (no singleton mass is ever mixed in); above it the
    equalized value.  Strictly increasing in z.
    """
    if s < 1:
        raise DomainError("singleton blend needs s >= 1")
    z = F(z)
    f1 = u.value(1)
    if z <= -f1:
        return z
    b = ref_singleton_guarantee(s, u)
    fns = u.value(n - s)
    return (b * z - f1 * fns) / (z + b + fns + f1)


def crowded_cp_bounds(n, s, u):
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
    xval = 2 * beta / (x - 1) - (ONE - F(2, x - 1)) * f_cut
    f1 = u.value(1)
    if s >= 1 and xval > -f1:
        yval = singleton_blend(xval, s, n, u)
    else:
        yval = xval
    a = value_rows(n, u)[s, (x - 3) // 2].component
    diff = (
        2 * (u.value(x - 1) - f_cut) * (f_cut + beta) * (x - 3)
    ) / ((x - 1) * ((x - 3) * u.value(x - 1) + 2 * f_cut + (x - 1) * beta))
    assert xval - a == diff and diff > 0
    q = seeker_bound(n, (x - 3) // 2, s, u)
    assert yval > q
    return xval, yval


def linear_even_bound(n, s, u):
    """For linear f: the seeker bound at the maximal leaf count (n-s)/2,
    treating m as continuous, in the closed form that extends to all
    0 <= s <= n.  Used for the shape analysis of the bound in s."""
    if u.family != "linear":
        raise DomainError("linear_even_bound needs a linear utility")
    if not 0 <= s <= n:
        raise DomainError(f"need 0 <= s <= n, got s={s}")
    slope = u.params[0]
    if s == n:
        return ref_singleton_guarantee(n, u)
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
        assert value_rows(n, u)[s, x // 2].component == a_tilde
    return ab


# -- the kernel against the oracle -----------------------------------------------

ORACLE_BETAS = (F(0), F(1, 2), F(1), F(2), F(5), F(50), F(7, 3))
ORACLE_FAMILIES = {
    "linear": lambda b: UtilitySpec.linear(1, b),
    "square": lambda b: UtilitySpec.power(2, b),
    "cube": lambda b: UtilitySpec.power(3, b),
    "power 3/2": lambda b: UtilitySpec.power(F(3, 2), b),  # float-backed
    "ratio_power 2": lambda b: UtilitySpec.ratio_power(2, b),
    "ratio_power 3": lambda b: UtilitySpec.ratio_power(3, b),
}


def random_tables(size, seed):
    """Strictly increasing tables f(0..size-1) with small denominators:
    one with random steps, one convex (steps rising), one concave (falling),
    each with a random beta."""
    rng = random.Random(seed)
    steps = [F(rng.randint(1, 30), rng.randint(1, 8)) for _ in range(size - 1)]
    tables = []
    for order in (steps, sorted(steps), sorted(steps, reverse=True)):
        values = [F(0)]
        for step in order:
            values.append(values[-1] + step)
        beta = F(rng.randint(0, 40), rng.randint(1, 4))
        tables.append(UtilitySpec.table(values, beta))
    return tables


def oracle_utilities(family, size):
    """(utility, wide) pairs for one family: its seven betas, or three random
    tables.  Each beta is wide (checked at every n <= 60) for one family in
    turn, and so is the first table; the rest are checked at n <= 20."""
    if family == "table":
        return [(u, i == 0) for i, u in enumerate(random_tables(size, seed=size))]
    turn = sorted(ORACLE_FAMILIES).index(family)
    return [(ORACLE_FAMILIES[family](b), j % len(ORACLE_FAMILIES) == turn)
            for j, b in enumerate(ORACLE_BETAS)]


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type against the oracle
        return type(exc)


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES) + ["table"])
def test_kernel_matches_oracle_on_every_context(family):
    """Every (n, s, m) with n <= 60 (n <= 20 for the utilities that are not
    wide), and s and m one past their ranges: value_row gives the Fraction
    formulas' row, every field, or a DomainError outside the contexts;
    topology_threshold gives the same value or exception type as its
    formula; and value_table_rows gives exactly the rows of every context."""
    contexts = expected = 0
    for u, wide in oracle_utilities(family, 61):
        n_max = 60 if wide else 20
        expected += n_max + sum((n - s) // 2 + 1 for n in range(1, n_max + 1)
                                for s in range(0, n - 3))
        for n in range(1, n_max + 1):
            rows = {(row.s, row.m): row for row in cf.value_table_rows(n, u)}
            for s in range(-1, n + 2):
                t = outcome(ref_topology_threshold, n, s, u)
                assert outcome(cf.topology_threshold, n, s, u) == t, (n, s, u)
                x = n - s
                inside = 0 <= s <= n - 4 or s == n
                refs = ref_rows(n, s, u, range(x // 2 + 1)) if inside else []
                for m in range(-1, x // 2 + 2):
                    row = outcome(cf.value_row, n, s, m, u)
                    if 0 <= m < len(refs):
                        assert row == refs[m] == rows.pop((s, m)), (n, m, s, u)
                        if s < n and 2 * m == x:
                            assert row.component == ref_empty_component(m, x, u)
                        contexts += 1
                    else:
                        assert row is DomainError, (n, m, s, u)
                        assert outcome(ref_row, n, s, m, u) is DomainError
            assert not rows, (n, u, sorted(rows))
    assert contexts == expected


# Every n up to 12, then sizes up to 300: both parities at the benchmark's
# sizes, powers of two and one below.
SCAN_SIZES = tuple(range(1, 13)) + (13, 29, 64, 127, 200, 255, 256, 299, 300)


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES) + ["table"])
def test_scan_matches_oracle_up_to_300(family):
    """Every s that optimal_singleton_counts scans, at sizes up to 300, and
    the scan's (counts, minimum) itself."""
    for u, _ in oracle_utilities(family, 301):
        for n in SCAN_SIZES:
            values = {s: ref_best_seeker_bound(n, s, u) for s in list(range(0, n - 3)) + [n]}
            for s, value in values.items():
                assert cf.value_row(n, s, 0, u).best_bound == value, (n, s, u)
            best = min(values.values())
            counts = tuple(s for s, value in values.items() if value == best)
            assert cf.optimal_singleton_counts(n, u) == (counts, best), (n, u)


def best_bound(n, s, u):
    """(q, d) with best_seeker_bound(n, s, u) = q / d, d > 0, read from one
    integer table for this s alone."""
    if s == n:
        (nb, f1), den = u.integer_table((0, 1))
        return cf._singleton(n, -nb, f1), n * den
    x = n - s
    (nb, fx1, fx2, f1, fx), den = u.integer_table((0, x - 1, x - 2, 1, x))
    q, g = cf._best(x, s, -nb, f1, fx, fx1, fx2)
    return q, g * den


def scan_by_best_bound(n, u):
    """optimal_singleton_counts as one ``best_bound`` per candidate s,
    compared by cross-multiplying: the per-s oracle of the one-pass scan."""
    winners, best_q, best_d = [], 0, 1
    for s in list(range(0, n - 3)) + [n]:
        q, d = best_bound(n, s, u)
        if not winners or q * best_d < best_q * d:
            winners, best_q, best_d = [s], q, d
        elif q * best_d == best_q * d:
            winners.append(s)
    return tuple(winners), F(best_q, best_d)


def scan_utilities():
    """The twelve verify-grid utilities and four seeded random tables."""
    from hsnet.oracle import grid_utilities

    return [u for _, _, u in grid_utilities()] + random_tables(2001, 18) + random_tables(2001, 19)[:1]


def test_one_pass_scan_matches_per_s_oracle():
    for u in scan_utilities():
        for n in list(range(1, 121)) + [500, 2000]:
            assert cf.optimal_singleton_counts(n, u) == scan_by_best_bound(n, u), (n, u)


def test_scan_reads_each_size_once(monkeypatch):
    from hsnet.payoff import UtilitySpec

    tables, evaluated = [], []
    integer_table, evaluate = UtilitySpec.integer_table, UtilitySpec.evaluate
    monkeypatch.setattr(UtilitySpec, "integer_table",
                        lambda self, sizes: tables.append(sizes) or integer_table(self, sizes))
    monkeypatch.setattr(UtilitySpec, "evaluate",
                        lambda self, x: evaluated.append(x) or evaluate(self, x))
    n = 100000
    counts, best = cf.optimal_singleton_counts(n, identity_u(2))
    assert counts == (0,)
    assert len(tables) <= 1
    assert sorted(evaluated) == list(range(1, n + 1))


def test_threshold_examples():
    assert cf.topology_threshold(7, 0, identity_u()) == -1
    assert cf.topology_threshold(12, 0, square_u()) == 89
    # with only four connected nodes the threshold is f(3) - 2f(2)
    for u in (identity_u(3), square_u(1), ratio_u(2)):
        for n in (5, 9, 20):
            assert cf.topology_threshold(n, n - 4, u) == u.value(3) - 2 * u.value(2)
    with pytest.raises(DomainError):
        cf.topology_threshold(6, 4, identity_u())


def test_threshold_form_equivalence_random():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(4, 25)
        s = rng.randint(0, n - 3)
        u = UtilitySpec.linear(
            F(rng.randint(1, 5), rng.randint(1, 3)), F(rng.randint(0, 9), rng.randint(1, 4))
        )
        x = n - s
        d = u.value(x - 1) + u.beta
        d1 = u.value(x - 2) + u.beta
        assert cf.topology_threshold(n, s, u) == (x - 3) * d - (x - 2) * d1 + u.beta


def test_component_guarantee_examples():
    assert cf.value_row(8, 0, 4, identity_u(2)).component == -4
    # cycle form at m=0: capture 3/(n-s), residual n-s-1
    assert cf.value_row(4, 0, 0, identity_u(1)).component == 0
    assert cf.value_row(8, 0, 2, identity_u(1)).component == F(-79, 19)
    with pytest.raises(DomainError):
        cf.value_row(7, 4, 0, identity_u(2))


def test_component_guarantee_branch_agreement():
    for u in (identity_u(2), square_u(F(1, 2)), ratio_u(5)):
        for n in (4, 6, 8, 10):
            m = n // 2
            # the empty-residual form beta/m - ((m-1)/m) f(n-2)
            empty = u.beta / m - F(m - 1, m) * u.value(n - 2)
            assert cf.value_row(n, 0, m, u).component == empty


def test_cycle_form_of_component_guarantee():
    # at m=0 the guarantee is exactly the uniform-cycle payoff
    for u in (identity_u(1), square_u(2)):
        for n in (5, 8, 13):
            a = cf.value_row(n, 0, 0, u).component
            assert a == F(3, n) * u.beta - (1 - F(3, n)) * u.value(n - 1)


def test_singleton_guarantee_examples():
    # B for s isolated nodes, in the s = n row
    assert cf.value_row(1, 1, 0, identity_u(7)).singleton == 7
    assert cf.value_row(4, 4, 0, identity_u(0)).singleton == F(-3, 4)
    assert cf.value_row(5, 5, 0, identity_u(1)).singleton == F(-3, 5)
    with pytest.raises(DomainError):
        cf.value_row(0, 0, 0, identity_u())


def test_residual_seek_weight_examples():
    # The rho cell of value_table_rows, and of the one row.
    u = identity_u(1)
    assert value_rows(8, u)[0, 2].residual_weight == F(7, 19)
    assert cf.value_row(8, 0, 2, u).residual_weight == F(7, 19)
    assert value_rows(8, identity_u(2))[0, 4].residual_weight == 0  # no residual set
    assert value_rows(8, u)[0, 0].residual_weight == 1  # no attachments
    assert cf.value_row(8, 0, 0, u).residual_weight == 1


def test_equalized_guarantees_identity():
    # the residual weight makes both component-side guarantees equal to the
    # component guarantee, for any singleton weight
    for u in (identity_u(1), square_u(2), ratio_u(F(1, 2))):
        for (n, m, s) in [(8, 2, 0), (9, 1, 2), (12, 3, 1), (10, 2, 4)]:
            row = cf.value_row(n, s, m, u)
            rho, a = row.residual_weight, row.component
            for lam_s in (F(0), F(1, 3)):
                lr = guarantee_hiding_residual(n, m, s, u, rho, lam_s)
                lm = guarantee_hiding_attachments(n, m, s, u, rho, lam_s)
                assert lr == lm == (1 - lam_s) * a - lam_s * u.value(n - s)


def test_singleton_seek_weight_branches():
    u = identity_u(2)
    assert cf.value_row(6, 6, 0, u).singleton_weight == 1
    assert cf.value_row(8, 0, 4, u).singleton_weight == 0
    # blended branch is a genuine probability strictly inside (0,1)
    w = cf.value_row(7, 3, 2, u).singleton_weight
    assert 0 < w < 1
    # third branch: component guarantee at or below -f(1)
    assert cf.value_row(8, 2, 3, identity_u(0)).singleton_weight == 0


def test_seeker_bound_examples():
    assert seeker_bound(4, 0, 4, identity_u(0)) == F(-3, 4)  # all singles
    assert seeker_bound(8, 4, 0, identity_u(2)) == -4
    u = identity_u(2)
    # blended value matches its weight form (checked internally too)
    q = seeker_bound(7, 2, 3, u)
    row = cf.value_row(7, 3, 2, u)
    lam, a = row.singleton_weight, row.component
    assert q == (1 - lam) * a - lam * u.value(4)


def test_best_seeker_bound_branches():
    # threshold above beta: cycle branch (m = 0)
    assert cf.value_row(12, 0, 0, square_u(1)).best_bound == seeker_bound(12, 0, 0, square_u(1))
    # below beta, even part: half leaves
    assert cf.value_row(8, 0, 0, identity_u(2)).best_bound == -4
    # below beta, odd part: (x-3)/2 leaves
    assert cf.value_row(5, 0, 0, identity_u(2)).best_bound == F(-8, 11)
    row = cf.value_row(9, 9, 0, identity_u(1))
    assert row.best_bound == row.singleton == ref_singleton_guarantee(9, identity_u(1))


def test_bound_constant_at_threshold_tie():
    # square utility, four connected nodes: threshold equals beta at 1
    u = square_u(1)
    vals = {seeker_bound(8, m, 4, u) for m in range(0, 3)}
    assert len(vals) == 1
    assert cf.value_row(8, 4, 0, u).best_bound == vals.pop()


def test_component_hide_weight_branches():
    u = identity_u(2)
    m = ref_design_mixing_m(5, 0, u)
    assert cf.value_row(5, 0, m, u).hide_weight == 1  # no singletons
    # blended branch in (0,1) when the component guarantee beats -f(1)
    k = cf.value_row(7, 3, ref_design_mixing_m(7, 3, u), u).hide_weight
    assert 0 < k <= 1
    # deep component: isolated nodes, but A <= -f(1)
    deep = cf.value_row(8, 2, 3, identity_u(0))
    assert deep.component <= -1 and deep.hide_weight == 1


def test_periphery_hide_weight_example():
    assert cf.value_row(9, 0, 3, identity_u(10)).periphery_weight == F(51, 71)
    # only the row of an odd layout has mu: not an even part, nor another m
    assert all(row.periphery_weight is None for row in cf.value_table_rows(8, identity_u(10))
               if row.s == 0)
    assert cf.value_row(9, 0, 2, identity_u(10)).periphery_weight is None
    with pytest.raises(DomainError):
        cf.value_row(5, 2, 0, identity_u(10))


def test_crowded_cp_bounds_example():
    x, y = crowded_cp_bounds(9, 0, identity_u(10))
    assert x == F(-11, 4)
    assert x > cf.value_row(9, 0, 3, identity_u(10)).component
    assert y > seeker_bound(9, 3, 0, identity_u(10))


def test_blend_monotone_random_pairs():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(5, 20)
        s = rng.randint(1, n - 4)
        u = identity_u(F(rng.randint(0, 10), rng.randint(1, 4)))
        z1 = F(rng.randint(-40, 40), rng.randint(1, 7))
        z2 = F(rng.randint(-40, 40), rng.randint(1, 7))
        if z1 == z2:
            continue
        lo, hi = min(z1, z2), max(z1, z2)
        assert singleton_blend(lo, s, n, u) < singleton_blend(hi, s, n, u)


def test_blend_fixed_point_and_identity_branch():
    u = identity_u(2)
    f1 = u.value(1)
    assert singleton_blend(-f1, 3, 9, u) == -f1
    assert singleton_blend(F(-5), 3, 9, u) == -5
    with pytest.raises(DomainError):
        singleton_blend(F(0), 0, 9, u)


def test_optimal_singleton_counts_examples():
    assert cf.optimal_singleton_counts(8, identity_u(2)) == ((0,), F(-4))
    counts, best = cf.optimal_singleton_counts(7, identity_u(50))
    assert counts == (7,) and best == F(44, 7)
    # tiny boards only admit the fully isolated design
    for n in (1, 2, 3):
        counts, _ = cf.optimal_singleton_counts(n, identity_u(1))
        assert counts == (n,)
    # a genuine tie is returned whole
    counts, _ = cf.optimal_singleton_counts(4, identity_u(1))
    assert counts == (0, 4)


def test_optimal_singleton_counts_small_boards_cap():
    # boards up to 5 nodes can only use 0, 1, or all isolated nodes
    for n in (4, 5):
        for u in (identity_u(0), identity_u(3), square_u(1), ratio_u(2)):
            counts, _ = cf.optimal_singleton_counts(n, u)
            assert set(counts) <= {0, 1, n}


def test_linear_even_bound_identities():
    u = identity_u(7)
    assert linear_even_bound(9, 9, u) == cf.value_row(9, 9, 0, u).singleton
    for n in (6, 8, 10, 12):
        for s in range(0, n - 3):
            if (n - s) % 2 == 0:
                a_tilde = cf.value_row(n, s, (n - s) // 2, u).component
                if a_tilde > -u.value(1):
                    assert linear_even_bound(n, s, u) == seeker_bound(
                        n, (n - s) // 2, s, u
                    )
    with pytest.raises(DomainError):
        linear_even_bound(8, 2, square_u(1))


def test_value_table_rows_domain():
    rows = cf.value_table_rows(8, identity_u(1))
    ss = {r.s for r in rows}
    assert ss == {0, 1, 2, 3, 4, 8}  # nothing in {n-3, n-2, n-1}
    for r in rows:
        if r.s == 8:
            assert r.threshold is None and r.component is None
        else:
            assert 0 <= r.m <= (8 - r.s) // 2


def domain_outcome(fn, *args):
    """None when fn(*args) returns, or the message of the DomainError it
    raises; any other exception fails the test."""
    try:
        fn(*args)
    except DomainError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("u", [identity_u(2), UtilitySpec.power(F(3, 2), F(1, 2))],
                         ids=["linear", "power 3/2"])
def test_every_refusal_is_a_domain_error_naming_its_argument(u):
    """Every public function over n in -1..9 (and True, 2.0), s and m in
    -1..n+1: it returns inside its domain, and outside it raises a
    DomainError that names the first bad one of n, s and m."""
    def named(value, name):
        return None if value is None else f"{name}={value!r}"

    for n in list(range(-1, 10)) + [True, 2.0]:
        bad_n = n if type(n) is not int or n < 1 else None
        for fn in (cf.value_table_rows, cf.optimal_singleton_counts):
            message = domain_outcome(fn, n, u)
            assert message is None if bad_n is None else named(n, "n") in message, (fn, n)
        for s in range(-1, int(n) + 2):
            bad_t = n if bad_n is not None else None if 0 <= s <= n - 3 else s
            message = domain_outcome(cf.topology_threshold, n, s, u)
            want = named(bad_t, "n" if bad_n is not None else "s")
            assert message is None if want is None else want in message, (n, s)
            for m in range(-1, int(n) + 2):
                if bad_n is not None:
                    want = named(n, "n")
                elif not (0 <= s <= n - 4 or s == n):
                    want = named(s, "s")
                elif not 0 <= m <= (n - s) // 2:
                    want = named(m, "m")
                else:
                    want = None
                message = domain_outcome(cf.value_row, n, s, m, u)
                assert message is None if want is None else want in message, (n, s, m)


def test_value_table_rows_read_one_table_per_block(monkeypatch):
    tables = []
    integer_table = UtilitySpec.integer_table
    monkeypatch.setattr(UtilitySpec, "integer_table",
                        lambda self, sizes: tables.append(sizes) or integer_table(self, sizes))
    for n in range(1, 31):
        cf.value_table_rows(n, identity_u(2))
    # One table per (n, s) block with s <= n - 4, and one per n for s = n.
    assert len(tables) == sum(range(1, 28)) + 30 == 408
