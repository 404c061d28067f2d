"""Almost-invariant window vectors for the exact lattice walk.

Prints the defect ||Lambda(mu) phi_n - phi_n|| of the normalized window
vector phi_n for n = 2^3 .. 2^maxj by two routes, the collapsed operator
and a closed-form row sum. Both read one phase table, swept in integers
(fractional parts within 2^-128) until the final float conversion, so
their agreement checks the row bookkeeping, not the phases; the phases
are checked against an independent decimal evaluation in the tests. The
product n * defect settling to a constant shows the 1/n rate, which is
what certifies that 1 lies in the approximate point spectrum even though
no eigenvector exists.

    PYTHONPATH=src python3 scripts/defect_table.py [maxj]

Default maxj is 12 (0.3 s for the whole run on a 2-vCPU x86-64 Xeon,
10 ms of it at n = 4096); the sweep steps n rows of integers of about
2.3 n bits, so its time grows like n^2: n = 2^13 takes about 0.06 s and
n = 2^14 0.15-0.25 s (maxj = 14: 0.75 s for the whole run).
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
