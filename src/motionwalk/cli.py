"""Command line surface: group and measure definitions in, reports out.

Definition files are JSON. A group file is

    {"abelian": {"modulus": n, "rank": d},
     "k": {"table": [[...]], "action": [[[...]]]}}

with 0-based table indices, identity at index 0, and one d x d integer
matrix per point-group element. A measure file is

    {"atoms": [{"a": [ints], "k": int, "re": float, "im": float}, ...]}

where omitted elements carry weight zero and repeated atoms accumulate.

Exit codes are a stable contract: 0 clean, 2 violations or a failed
radius-formula check, 3 no violations but indeterminate outcomes, 64
unparseable or invalid definitions, 65 a measure that had to be a
probability and was not.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .classify import CESARO_N_MAX, MIXING_N_MAX, Verdict, cross_check
from .errors import (
    NotAGroupTable,
    NotAHomomorphism,
    NotInvertible,
    NotProbability,
    ParseError,
)
from .groups import GElem, MotionGroup, build_motion_group
from .measures import GroupMeasure, from_weights
from .rosenblatt import defect_norm, eigen_parameter
from .simulate import empirical_distributions, exact_powers, tv_to_uniform
from .spectral import SPECTRAL_TOL, OrbitSpectral, orbit_spectra, verify_srf

__all__ = [
    "parse_group_data",
    "parse_measure_data",
    "group_to_data",
    "measure_to_data",
    "load_group",
    "load_measure",
    "main",
]


# largest |G| a group file may declare: every command first allocates a
# |G|-long complex measure (16 MB here)
MAX_GROUP_ORDER = 1 << 20
# largest |K| a group file may declare, whatever the modulus: checking the
# table's associativity compares two |K|^3 tables of one-byte indices (a
# cyclic table at the bound took 0.013 s, 6 MB traced, 39 MB RSS; 2-vCPU x86-64)
MAX_K_ORDER = 1 << 7
# largest |G| classify takes. Time and memory do not set it: at the bound
# a random dense measure took 0.07 s and peaked at 40 MB (2-vCPU x86-64).
# The fixed guard band of the spectral checks does: from about |G| = 2^15
# a mixing walk's 1 - rho falls below tol = SPECTRAL_TOL and reads SR FAILS
MAX_CLASSIFY_ORDER = 1 << 12
# largest --n-max classify takes: every dyadic point adds a square to the
# power chain and a row to the read-back, which holds at most
# classify.CURVE_BATCH_ENTRIES entries of rows at once; at |G| = 4096 a
# random dense measure took 0.08 s and peaked at 43-44 MB at the bound and
# at 1024 (2-vCPU x86-64)
MAX_CLASSIFY_N_MAX = 1 << 20
# largest window rosenblatt takes: the phase sweep steps n rows of
# integers of about 2.3 n bits, so defect_norm's time grows like n^2
# (0.15-0.25 s and 34 MB peak at the bound)
MAX_DEFECT_N = 1 << 14
# largest --trials simulate takes: the walk holds one array of positions,
# 8 bytes per trial, and counts them block by block (2^23 trials peaked at
# 104-106 MB RSS, 33 MB of it before the walk; 2^24 at 170 MB)
MAX_SIM_TRIALS = 1 << 24
# largest --steps: every step is a pass of a Python loop, about 11 us even
# at one trial (11.5 s at the bound)
MAX_SIM_STEPS = 1 << 20
# largest --steps x --trials: a two-atom walk took 7-8 ns per trial step on
# one thread and 3-5 ns on two (7.3-8.4 s and 3.6-5.1 s at the bound), a
# dense one on 1024 elements 36 and 19 ns (38.7 s and 19.9 s), its time
# spent in the search of cut guide buckets (2-vCPU x86-64 Xeon)
MAX_SIM_TRIAL_STEPS = 1 << 30
# largest complex array spectrum, verify-srf and simulate hold: each one's
# block stack, orbits * |K|^2 entries (|G| to |G| |K|), and verify-srf's
# Gelfand gather, |G| |K| entries. At the bound (Z_128 acting trivially on
# Z_1024, a two-atom measure) spectrum took 35.0 s at 319 MB peak RSS,
# verify-srf 34.7 s at 444 MB, and simulate to 2^20 steps 27.7 s at 645 MB
# (2-vCPU x86-64, BLAS on one thread)
MAX_BLOCK_ENTRIES = 1 << 24
# largest weak-mixing Gram tensor of classify's curves, orbits * |K|^3
# complex entries (|G| |K| to |G| |K|^2): K = Z_32 acting trivially on Z_128
# is at the bound, 2.7 s and 237 MB peak RSS; through the API, Z_64 on Z_32
# (2^23) took 5.7 s and 429 MB, Z_64 on Z_64 and Z_128 on Z_8 (2^24)
# 11.7-13.3 s and 0.8 GB. A free action at the |G| cap, rotation_group(32),
# holds 2^14 (0.05 s, 42 MB; 2-vCPU x86-64)
MAX_CLASSIFY_GRAM_ENTRIES = 1 << 22


def _tool_stamp(args: Optional[argparse.Namespace] = None, **config) -> dict:
    """Tool and version, and for a run on definition files its config: the
    paths, then config in the caller's order (the format, the settings the
    command reads and the fixed budgets it uses, which no flag reaches)."""
    stamp = {"tool": "motionwalk", "version": __version__}
    if args is not None:
        stamp["config"] = {"group_path": args.group, "measure_path": args.measure, **config}
    return stamp


def _check_tol(tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ParseError(f"tol must be positive and finite, got {tol}")


def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _integral(value, what: str):
    """value, a JSON number or nested lists of them, once each number is
    integral: int() and an int64 cast would read 0.5 as 0 and true as 1."""
    for v in np.asarray(value, dtype=object).flat:
        if isinstance(v, bool) or not (isinstance(v, int)
                                       or isinstance(v, float) and v.is_integer()):
            raise ParseError(f"{what}: {v!r} is not an integer")
    return value


def _real(value, what: str) -> float:
    """value as a float once it is a JSON number: float() would read
    true as 1.0 and the string "0.5" as 0.5."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what}: {value!r} is not a number")
    return float(value)


def parse_group_data(data) -> MotionGroup:
    if not isinstance(data, dict):
        raise ParseError("group file: expected a JSON object")
    try:
        ab, kpart = data["abelian"], data["k"]
        n, d = (int(_integral(ab[key], f"group file: {key}")) for key in ("modulus", "rank"))
        table, action = (_integral(kpart[key], f"group file: k {key}") for key in ("table", "action"))
        if len(table) > MAX_K_ORDER:
            raise ParseError(f"group file: |K| exceeds {MAX_K_ORDER} elements")
        # the largest rank |G| admits at modulus 2, at every modulus: at
        # modulus 1, A is trivial whatever the rank, and the transforms'
        # rank + 2 axes would pass numpy's 64
        max_rank = MAX_GROUP_ORDER.bit_length() - 1
        if d > max_rank:
            raise ParseError(f"group file: rank exceeds {max_rank}")
        if n >= 2 and d >= 1 and n ** d * len(table) > MAX_GROUP_ORDER:
            raise ParseError(f"group file: |G| exceeds {MAX_GROUP_ORDER} elements")
        return build_motion_group(n, d, table, action)
    except (NotAGroupTable, NotAHomomorphism, NotInvertible, ParseError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"group file: missing or malformed field ({exc})") from exc


def parse_measure_data(g: MotionGroup, data) -> GroupMeasure:
    if not isinstance(data, dict) or "atoms" not in data:
        raise ParseError('measure file: expected an object with an "atoms" list')
    atoms = data["atoms"]
    if not isinstance(atoms, list):
        raise ParseError('measure file: "atoms" must be a list')
    idx, weights = [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ParseError(f"measure file: atom {i} is not an object")
        try:
            a = tuple(int(v) for v in _integral(atom["a"], f"measure file: atom {i} a"))
            k = int(_integral(atom.get("k", 0), f"measure file: atom {i} k"))
            weight = complex(*(_real(atom.get(key, 0.0), f"measure file: atom {i} {key}")
                               for key in ("re", "im")))
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"measure file: atom {i} malformed ({exc})") from exc
        if len(a) != g.abelian.rank:
            raise ParseError(
                f"measure file: atom {i} has rank {len(a)}, group has rank {g.abelian.rank}")
        if not 0 <= k < g.k.order:
            raise ParseError(
                f"measure file: atom {i} has k={k} outside [0, {g.k.order})")
        idx.append(g.index(GElem(a, k)))
        weights.append(weight)
    w = np.zeros(g.size, dtype=complex)
    # a NaN, an infinity, or finite weights whose sum overflows all leave
    # the total variation non-finite: one check, without numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(w, np.array(idx, dtype=np.intp), weights)
        tv = np.abs(w).sum()
    if not np.isfinite(tv):
        raise ParseError("measure file: weights must be finite, and so must their total variation")
    return from_weights(g, w)


def group_to_data(g: MotionGroup) -> dict:
    return {
        "abelian": {"modulus": g.abelian.modulus, "rank": g.abelian.rank},
        "k": {"table": g.k.table.tolist(), "action": g.k.action.tolist()},
    }


def measure_to_data(mu: GroupMeasure) -> dict:
    g = mu.group
    atoms = []
    for idx in np.flatnonzero(np.abs(mu.weights) > 0):
        x = g.element(int(idx))
        wgt = mu.weights[idx]
        atoms.append({"a": list(x.a), "k": x.k,
                      "re": float(wgt.real), "im": float(wgt.imag)})
    return {"atoms": atoms}


def load_group(path: str) -> MotionGroup:
    return parse_group_data(_read_json(path))


def load_measure(path: str, g: MotionGroup) -> GroupMeasure:
    return parse_measure_data(g, _read_json(path))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _render_rows(rows: List[dict], fmt: str, payload: dict) -> str:
    """rows drive csv/table; the full payload drives json."""
    if fmt == "json":
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return buf.getvalue()
    widths = {}
    for row in rows:
        for key, val in row.items():
            widths[key] = max(widths.get(key, len(key)), len(str(val)))
    header = "  ".join(k.ljust(widths[k]) for k in widths)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(str(row.get(k, "")).ljust(widths[k]) for k in widths))
    return "\n".join(lines) + "\n"


def _block_label(record) -> str:
    if record is None:
        return "-"
    if record.is_complement:
        return "complement"
    return "alpha=" + str(tuple(record.representative.alpha))


def _classify_rows(v: Verdict) -> List[dict]:
    def curve_detail(curve):
        n, val = curve.points[-1]
        return f"final {val:.3e} at n={n}"

    return [
        {"condition": "spectral radii < 1 (SR)", "verdict": v.sr.verdict.value,
         "detail": f"witness {_block_label(v.sr.witness)}"},
        {"condition": "1 outside spectra (S)", "verdict": v.s.verdict.value,
         "detail": f"witness {_block_label(v.s.witness)}"},
        {"condition": "adapted", "verdict": "yes" if v.adapted.adapted else "no",
         "detail": f"support closure size {v.adapted.subgroup_size}"},
        {"condition": "strictly aperiodic",
         "verdict": "yes" if v.strictly_aperiodic.strictly_aperiodic else "no",
         "detail": f"normal closure size {v.strictly_aperiodic.closure_size}"},
        {"condition": "mixing (empirical)", "verdict": v.empirical_mixing.verdict,
         "detail": curve_detail(v.empirical_mixing)},
        {"condition": "ergodic (empirical)", "verdict": v.empirical_ergodic.verdict,
         "detail": curve_detail(v.empirical_ergodic)},
        {"condition": "weakly mixing (empirical)",
         "verdict": v.weak_mixing_empirical.verdict,
         "detail": curve_detail(v.weak_mixing_empirical)},
        {"condition": "consistency",
         "verdict": "violated" if v.consistency else "ok",
         "detail": "; ".join(v.consistency) if v.consistency else "-"},
    ]


def _classify_exit(v: Verdict) -> int:
    if v.consistency:
        return 2
    curves = (v.empirical_mixing, v.empirical_ergodic, v.weak_mixing_empirical)
    indeterminate = "INDETERMINATE" in (v.sr.verdict.value, v.s.verdict.value) \
        or not all(c.conclusive for c in curves)
    return 3 if indeterminate else 0


def _cmd_classify(args) -> int:
    _check_tol(args.tol)
    if args.n_max < 1 or args.n_max & (args.n_max - 1):
        raise ParseError(f"n_max must be a power of two, got {args.n_max}")
    if args.n_max > MAX_CLASSIFY_N_MAX:
        raise ParseError(f"classify: --n-max {args.n_max} exceeds {MAX_CLASSIFY_N_MAX}")
    g = load_group(args.group)
    if g.size > MAX_CLASSIFY_ORDER:
        raise ParseError(f"classify: |G| = {g.size} exceeds {MAX_CLASSIFY_ORDER} elements")
    if (entries := len(g._representatives) * g.k.order ** 3) > MAX_CLASSIFY_GRAM_ENTRIES:
        raise ParseError(f"classify: {entries} Gram entries exceed {MAX_CLASSIFY_GRAM_ENTRIES}")
    mu = load_measure(args.measure, g)
    verdict = cross_check(mu, tol=args.tol, mixing_n_max=args.n_max)
    payload = {**_tool_stamp(args, tol=args.tol, n_max=args.n_max, format=args.format,
                             cesaro_n_max=CESARO_N_MAX),
               "report": verdict.to_dict()}
    _emit(_render_rows(_classify_rows(verdict), args.format, payload), args.out)
    return _classify_exit(verdict)


def _spectral_rows(per_orbit: Sequence[OrbitSpectral],
                   comp: OrbitSpectral) -> List[dict]:
    labelled = [("alpha=" + str(tuple(o.representative.alpha)), o) for o in per_orbit]
    return [{
        "block": label,
        "spectral_radius": f"{o.spectral_radius:.12g}",
        "op_norm": f"{o.op_norm:.12g}",
        "one_in_spectrum": o.one_in_spectrum,
        "margin": f"{o.margin:.6g}",
    } for label, o in labelled + [("complement", comp)]]


def _cmd_verify_srf(args) -> int:
    _check_tol(args.tol)
    g = load_group(args.group)
    # the Gelfand chain's index and gather hold |A| |K|^2 entries, never
    # fewer than the block stack's orbits * |K|^2, so this bounds both
    if (entries := g.size * g.k.order) > MAX_BLOCK_ENTRIES:
        raise ParseError(f"verify-srf: {entries} gather entries exceed {MAX_BLOCK_ENTRIES}")
    mu = load_measure(args.measure, g)
    report = verify_srf(mu, tol=args.tol)
    rows = _spectral_rows(report.per_orbit, report.lambda0_complement)
    rows.append({
        "block": "formula",
        "spectral_radius": f"{report.formula_radius:.12g}",
        "op_norm": f"{report.gelfand_radius_estimate:.12g}",
        "one_in_spectrum": report.passed,
        "margin": f"{report.formula_gap:.6g}",
    })
    payload = {**_tool_stamp(args, tol=args.tol, format=args.format), "report": report.to_dict()}
    _emit(_render_rows(rows, args.format, payload), args.out)
    return 0 if report.passed else 2


def _cmd_spectrum(args) -> int:
    _check_tol(args.tol)
    g = load_group(args.group)
    if (entries := len(g._representatives) * g.k.order ** 2) > MAX_BLOCK_ENTRIES:
        raise ParseError(f"spectrum: {entries} block entries exceed {MAX_BLOCK_ENTRIES}")
    mu = load_measure(args.measure, g)
    per_orbit, comp = orbit_spectra(mu, tol=args.tol)
    payload = {**_tool_stamp(args, tol=args.tol, format=args.format),
               "report": {"per_orbit": [o.to_dict() for o in per_orbit],
                          "lambda0_complement": comp.to_dict()}}
    _emit(_render_rows(_spectral_rows(per_orbit, comp), args.format, payload), args.out)
    return 0


def _dyadic_upto(n: int) -> List[int]:
    out = [1 << k for k in range(n.bit_length())]
    return out if out[-1] == n else out + [n]


def _cmd_simulate(args) -> int:
    if not 0 <= args.seed < 1 << 128:  # the seed range of the CLI's contract
        raise ParseError(f"seed must be in [0, 2^128), got {args.seed}")
    if args.steps < 1 or args.trials < 1:
        raise ParseError(f"need --steps >= 1 and --trials >= 1, got {args.steps}, {args.trials}")
    if args.trials > MAX_SIM_TRIALS or args.steps > MAX_SIM_STEPS \
            or args.steps * args.trials > MAX_SIM_TRIAL_STEPS:
        raise ParseError(f"simulate: need --trials <= {MAX_SIM_TRIALS}, --steps <= "
                         f"{MAX_SIM_STEPS} and their product <= {MAX_SIM_TRIAL_STEPS}")
    g = load_group(args.group)
    if (entries := len(g._representatives) * g.k.order ** 2) > MAX_BLOCK_ENTRIES:
        raise ParseError(f"simulate: {entries} block entries exceed {MAX_BLOCK_ENTRIES}")
    mu = load_measure(args.measure, g)
    ns = _dyadic_upto(args.steps)
    empirical = empirical_distributions(mu, ns, args.trials, args.seed)
    rows = [{"n": n,
             "tv_exact": f"{tv_to_uniform(exact):.12g}",
             "tv_empirical": f"{tv_to_uniform(emp):.12g}"}
            for n, exact, emp in zip(ns, exact_powers(mu, ns), empirical)]
    payload = {**_tool_stamp(args, format=args.format, seed=args.seed),
               "trials": args.trials, "steps": args.steps, "rows": rows}
    _emit(_render_rows(rows, args.format, payload), args.out)
    return 0


def _parse_n_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"--n-list: {exc}") from exc
    if not values or any(v < 3 for v in values):
        raise ParseError("--n-list needs integers >= 3")
    if any(v > MAX_DEFECT_N for v in values):
        raise ParseError(f"--n-list: n exceeds {MAX_DEFECT_N}")
    return values


def _cmd_rosenblatt(args) -> int:
    ns = _parse_n_list(args.n_list)
    t, lam = eigen_parameter()
    rows = [{"n": r.n, "direct": f"{r.direct:.12g}", "closed_form": f"{r.closed_form:.12g}"}
            for r in (defect_norm(t, n) for n in ns)]
    payload = {
        **_tool_stamp(),
        "lambda": {"x": str(lam.x), "y": str(lam.y)},
        "t": [{"x": str(q.x), "y": str(q.y)} for q in t],
        "rows": rows,
    }
    _emit(_render_rows(rows, args.format, payload), args.out)
    return 0


def _add_io_flags(sub, with_measure: bool = True) -> None:
    sub.add_argument("--group", required=True, help="group definition JSON")
    if with_measure:
        sub.add_argument("--measure", required=True, help="measure definition JSON")
    sub.add_argument("--format", choices=["json", "csv", "table"], default="json")
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionwalk",
        description="Spectral and empirical classification of random walks "
                    "on finite motion groups")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="six-condition verdict with cross-checks")
    _add_io_flags(p)
    p.add_argument("--tol", type=float, default=SPECTRAL_TOL)
    p.add_argument("--n-max", type=int, default=MIXING_N_MAX, dest="n_max")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("verify-srf", help="radius formula check on one measure")
    _add_io_flags(p)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="largest gap between the Gelfand estimate and the largest "
                        "block radius that passes; the one_in_spectrum column "
                        f"ignores it and always takes a margin of at most {SPECTRAL_TOL:g}")
    p.set_defaults(func=_cmd_verify_srf)

    p = subs.add_parser("spectrum", help="per-block radius, norm, and margin")
    _add_io_flags(p)
    p.add_argument("--tol", type=float, default=SPECTRAL_TOL,
                   help="margin at or below which 1 counts as in a block's spectrum")
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("simulate", help="Monte Carlo decay toward uniform")
    _add_io_flags(p)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("rosenblatt",
                        help="exact lattice-walk defect table (n, direct, closed form)")
    p.add_argument("--n-list", default="8,16,32,64,128,256,512,1024")
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rosenblatt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except (NotAGroupTable, NotAHomomorphism, NotInvertible) as exc:
        print(f"error: invalid group definition: {exc}", file=sys.stderr)
        return 64
    except NotProbability as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65


if __name__ == "__main__":
    sys.exit(main())
