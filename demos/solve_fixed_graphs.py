"""Solving the hide-and-seek game on hand-picked graphs.

The seeker inspects one node and sees its whole closed neighborhood; the
hider is captured there, or else keeps the value of her residual component.
This script walks through a few small graphs and prints exact values,
optimal strategies, and capture probabilities.
"""

from fractions import Fraction

from hsnet import (
    Graph,
    build_cycle,
    build_maximal_cp,
    capture_probability,
    format_rational,
    integer_payoffs,
    solve_zero_sum,
    UtilitySpec,
)


def show(name, g, u):
    # The payoffs are integers over one denominator D: the game's value is
    # the solved value over D, and the strategies are those of the game.
    rows, den = integer_payoffs(g, u)
    sol = solve_zero_sum(rows)
    cap = capture_probability(g, sol.row_strategy, sol.col_strategy)
    print(f"{name}  (n={g.node_count}, beta={format_rational(u.beta)})")
    print(f"  value to the hider : {format_rational(sol.value / den)}")
    print(f"  hider strategy     : {sol.row_strategy.to_pq()}")
    print(f"  seeker strategy    : {sol.col_strategy.to_pq()}")
    print(f"  capture probability: {format_rational(cap)}")
    print()


def main():
    identity = UtilitySpec.linear(1, 1)

    print("A 4-cycle is perfectly balanced at beta = 1: the 3/4 capture")
    print("chance exactly cancels the 3-node component kept on escape.\n")
    show("cycle on 4", build_cycle(4), identity)

    print("The 8-node core-periphery build halves the capture rate (2/8")
    print("instead of 3/8) at the cost of losing two nodes per inspection.\n")
    show("maximal core-periphery on 8", build_maximal_cp(8), UtilitySpec.linear(1, 2))

    print("A star is terrible for the hider: inspecting the hub sees everyone.\n")
    star = Graph(5, [(0, i) for i in range(1, 5)])
    show("star on 5", star, identity)

    print("Disconnected designs trade component value for anonymity.\n")
    show("four isolated nodes", Graph(4), UtilitySpec.linear(1, Fraction(1, 2)))


if __name__ == "__main__":
    main()
