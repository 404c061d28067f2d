"""Spectral radius against observed walk decay on one small group.

Takes the half-translation half-flip walk on the order-10 negation group,
prints every Fourier block radius, then tabulates the exact TV distance to
uniform of mu^n, for n = 1, 2, 4, ..., 4096 from one chain of squarings
(exact_powers), next to the envelope 2|G| rho^n predicted by the top
nontrivial radius. Run from the repository root:

    PYTHONPATH=src python3 scripts/radius_vs_decay.py
"""
from motionwalk import GElem, delta, negation_group, verify_srf
from motionwalk.simulate import exact_powers, tv_to_uniform


def main() -> None:
    g = negation_group(5)
    mu = 0.5 * delta(g, GElem((1,), 0)) + 0.5 * delta(g, GElem((0,), 1))

    report = verify_srf(mu)
    print("per-block spectral radii")
    for orbit in report.per_orbit:
        print(f"  alpha={tuple(orbit.representative.alpha)}  "
              f"rho={orbit.spectral_radius:.6f}  margin={orbit.margin:.6f}")
    comp = report.lambda0_complement
    print(f"  complement   rho={comp.spectral_radius:.6f}")
    print(f"gelfand estimate {report.gelfand_radius_estimate:.6f}  "
          f"gap {report.formula_gap:.2e}\n")

    rho = max(o.spectral_radius for o in report.per_orbit
              if any(o.representative.alpha))
    print(f"{'n':>6}  {'tv(mu^n, u)':>12}  {'2|G| rho^n':>12}")
    ns = [1 << k for k in range(13)]
    for n, power in zip(ns, exact_powers(mu, ns)):
        tv = tv_to_uniform(power)
        print(f"{n:>6}  {tv:>12.3e}  {2 * g.size * rho ** n:>12.3e}")


if __name__ == "__main__":
    main()
