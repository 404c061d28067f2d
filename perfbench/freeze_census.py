"""Freeze the suite200 verdict census that the benchmark checks against.

Runs cross_check on all 200 acceptance cases and writes the verdicts to
perfbench/data/suite200_census.json. Run it from the root of a checkout
only when the census is meant to change, and say why in the change:

    python3 perfbench/freeze_census.py
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import motionwalk as mw  # noqa: E402

from workloads import CENSUS_PATH, verdict_summary  # noqa: E402


def main() -> None:
    cases = {c.name: verdict_summary(mw.cross_check(c.measure)) for c in mw.acceptance_suite()}
    CENSUS_PATH.parent.mkdir(exist_ok=True)
    CENSUS_PATH.write_text(json.dumps({"motionwalk": mw.__version__, "cases": cases},
                                      indent=1, sort_keys=True) + "\n")
    print(f"{len(cases)} cases written to {CENSUS_PATH}")


if __name__ == "__main__":
    main()
