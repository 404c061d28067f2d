"""Classify the whole 200-case suite and print a verdict census.

Useful as a smoke run before trusting the acceptance gate: shows how the
verdicts distribute, which cases stay inconclusive at the default budgets,
and whether any case trips the internal consistency checks.

    PYTHONPATH=src python3 scripts/suite_census.py
"""
import time
from collections import Counter

from motionwalk import cross_check
from motionwalk.suite import acceptance_suite


def main() -> None:
    cases = acceptance_suite()
    t0 = time.monotonic()
    verdicts = [(case, cross_check(case.measure)) for case in cases]
    elapsed = time.monotonic() - t0

    mixing = Counter(v.empirical_mixing.verdict for _, v in verdicts)
    ergodic = Counter(v.empirical_ergodic.verdict for _, v in verdicts)
    weak = Counter(v.weak_mixing_empirical.verdict for _, v in verdicts)
    sr = Counter(v.sr.verdict.value for _, v in verdicts)

    print(f"{len(cases)} cases classified in {elapsed:.1f}s\n")
    print("spectral radius condition:", dict(sr))
    print("mixing (empirical):       ", dict(mixing))
    print("ergodic (empirical):      ", dict(ergodic))
    print("weak mixing (empirical):  ", dict(weak))

    open_cases = [case.name for case, v in verdicts
                  if not (v.empirical_mixing.conclusive
                          and v.empirical_ergodic.conclusive
                          and v.weak_mixing_empirical.conclusive)]
    print(f"\ninconclusive at default budgets ({len(open_cases)}):")
    for name in open_cases:
        print("  ", name)

    bad = [(case.name, v.consistency) for case, v in verdicts if v.consistency]
    if bad:
        print("\nCONSISTENCY VIOLATIONS:")
        for name, msgs in bad:
            print("  ", name, msgs)
    else:
        print("\nno consistency violations")


if __name__ == "__main__":
    main()
