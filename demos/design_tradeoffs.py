"""How the optimal network changes with the capture penalty.

For a fixed node budget the designer chooses between three layouts: a cycle
(hard to disrupt, but every node has two neighbors), a maximal
core-periphery graph (leaves are exposed to only one inspection each), and
giving up on connectivity entirely.  The growth threshold of the component
value decides the first two; large penalties push toward isolation.
"""

from fractions import Fraction

from hsnet import UtilitySpec, design_optimal, format_rational, to_dot
from hsnet.closed_form import value_row


def sweep(n, make_utility, betas, label):
    print(f"--- {label}, n = {n} ---")
    print(f"{'beta':>8} {'threshold':>10} {'topology':>18} {'isolated':>9} {'value':>10}")
    for beta in betas:
        u = make_utility(beta)
        res = design_optimal(n, u)
        t = value_row(n, 0, 0, u).threshold
        print(
            f"{format_rational(beta):>8} {format_rational(t):>10} "
            f"{res.topology:>18} {res.s_star:>9} "
            f"{format_rational(res.predicted_value):>10}"
        )
    print()


def main():
    betas = [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(8), Fraction(60)]

    # linear value: the threshold is always -1, so connected designs are
    # always core-periphery; only huge penalties force isolation
    sweep(12, lambda b: UtilitySpec.linear(1, b), betas, "linear component value")

    # quadratic value: the threshold is large and positive, so the cycle
    # wins until the penalty overtakes it
    sweep(12, lambda b: UtilitySpec.power(2, b), betas, "quadratic component value")

    # slowly growing convex value: behaves like the concave case
    sweep(12, lambda b: UtilitySpec.ratio_power(2, b), betas, "ratio-power value")

    res = design_optimal(13, UtilitySpec.linear(1, 2))
    print("An odd-sized component uses three orphaned core nodes; the middle")
    print(f"one (node {res.middle_orphan}) is wired to exactly the other two:")
    print(to_dot(res.graph, res.dot_roles()))


if __name__ == "__main__":
    main()
