"""Brute-force verification of the design theory at small sizes.

Every graph on up to 7 nodes (up to isomorphism) is solved exactly and the
best achievable value is compared with the closed-form prediction.  The
structural checks then inspect the argmax graphs themselves.

The run below also demonstrates the honest caveat at n = 4, where two
graphs with a 2-node component tie the optimum exactly, so the
small-component exclusion fails at that boundary and the verifier says so:

* two disjoint edges tie the optimal design (both give capture probability
  1/2 and a surviving pair); this is the tie shown below, at linear beta=0;
* one edge plus two isolated nodes ties at linear beta=1 (and quadratic
  beta=5), where the 4-node design and the empty graph tie each other.
"""

from fractions import Fraction

from hsnet import UtilitySpec, exhaustive_optima, format_rational


def report(n, u, label):
    (rep,) = exhaustive_optima(n, [u])
    print(f"n={n}, {label}: {rep.graph_count} graphs")
    print(f"  best value        : {format_rational(rep.best_value)}")
    print(f"  closed-form value : {format_rational(rep.closed_form_value)}")
    print(f"  values agree      : {rep.value_match}")
    for check in rep.structural_checks:
        mark = "ok " if check.passed else "FAIL"
        print(f"  [{mark}] {check.name}: {check.detail}")
    if not rep.all_passed():
        print("  argmax graphs:")
        for g in rep.argmax_graphs:
            print(f"    n={g.node_count}, edges={sorted(g.edges)}")
    print()


def main():
    report(5, UtilitySpec.linear(1, 2), "linear value, beta=2")
    report(6, UtilitySpec.linear(1, 5), "linear value, beta=5")
    report(6, UtilitySpec.power(2, 0), "quadratic value, beta=0")
    print("The known boundary at n=4 (disjoint edges tie the optimum):\n")
    report(4, UtilitySpec.linear(1, 0), "linear value, beta=0")


if __name__ == "__main__":
    main()
