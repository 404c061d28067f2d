"""Almost-invariant window vectors for the exact lattice walk.

Prints the defect ||Lambda(mu) phi_n - phi_n|| of the normalized window
vector phi_n for n = 2^3 .. 2^maxj by two routes, the collapsed operator
and a closed-form row sum. Both read one phase table, swept exactly in
integers over Q(sqrt 5) until the final float conversion, so their
agreement checks the row bookkeeping, not the phases; the phases are
checked against an independent decimal evaluation in the tests. The
product n * defect settling to a constant shows the 1/n rate, which is
what certifies that 1 lies in the approximate point spectrum even though
no eigenvector exists.

    PYTHONPATH=src python3 scripts/defect_table.py [maxj]

Default maxj is 12 (under 1 s in total on a 2-vCPU machine, 0.6 s of it
at n = 4096); the integer arithmetic grows faster than n, so n = 2^13
alone takes about 2.5-3 s and n = 2^14 about 13-14 s (maxj = 14: 16 s).
"""
import sys
import time

from motionwalk.rosenblatt import defect_norm, eigen_parameter


def main() -> None:
    maxj = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    t, lam = eigen_parameter()
    print(f"eigen parameter lambda = sqrt(5) - 2 (exact: {lam.x} + {lam.y}*sqrt5)")
    print(f"t = ({t[0].x} + {t[0].y}*sqrt5, {t[1].x} + {t[1].y}*sqrt5)\n")

    print(f"{'n':>6}  {'defect (direct)':>16}  {'closed form':>16}  {'n * defect':>10}")
    for j in range(3, maxj + 1):
        n = 2 ** j
        t0 = time.monotonic()
        r = defect_norm(t, n)
        dt = time.monotonic() - t0
        print(f"{n:>6}  {r.direct:>16.9e}  {r.closed_form:>16.9e}  "
              f"{n * r.direct:>10.5f}  ({dt:.2f}s)")


if __name__ == "__main__":
    main()
