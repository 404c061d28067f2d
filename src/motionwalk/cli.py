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
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .classify import CESARO_N_MAX, WEAK_MIXING_SEED, Verdict, cross_check
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
from .spectral import OrbitSpectral, orbit_spectra, verify_srf

__all__ = [
    "RunConfig",
    "parse_group_data",
    "parse_measure_data",
    "group_to_data",
    "measure_to_data",
    "load_group",
    "load_measure",
    "main",
]


@dataclass(frozen=True)
class RunConfig:
    group_path: str
    measure_path: str
    tol: float = 1e-8
    n_max: int = 1024
    format: str = "json"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ParseError(f"tol must be positive and finite, got {self.tol}")
        if self.n_max < 1 or self.n_max & (self.n_max - 1):
            raise ParseError(f"n_max must be a power of two, got {self.n_max}")

    def to_dict(self) -> dict:
        return {
            "group_path": self.group_path,
            "measure_path": self.measure_path,
            "tol": self.tol,
            "n_max": self.n_max,
            "format": self.format,
            "seed": self.seed,
        }


_SETTINGS = ("tol", "n_max", "seed")

# largest |G| a group file may declare: every command first allocates a
# |G|-long complex measure (16 MB here)
MAX_GROUP_ORDER = 1 << 20
# largest |G| classify takes: cross_check builds |G| x |G| tables, about
# 61 bytes per |G|^2 at peak (about 1 GB at the bound)
MAX_CLASSIFY_ORDER = 1 << 12


def _tool_stamp(cfg: Optional[RunConfig], reads: Sequence[str] = (), **fixed) -> dict:
    """Tool and version, and for a run its config: the paths, the format,
    of the settings only those named in reads (the ones the command reads),
    and the fixed budgets it uses, which no flag reaches."""
    stamp = {"tool": "motionwalk", "version": __version__}
    if cfg is not None:
        stamp["config"] = {key: val for key, val in cfg.to_dict().items()
                           if key not in _SETTINGS or key in reads} | fixed
    return stamp


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


def parse_group_data(data) -> MotionGroup:
    if not isinstance(data, dict):
        raise ParseError("group file: expected a JSON object")
    try:
        ab, kpart = data["abelian"], data["k"]
        n, d = (int(_integral(ab[key], f"group file: {key}")) for key in ("modulus", "rank"))
        table, action = (_integral(kpart[key], f"group file: k {key}") for key in ("table", "action"))
        # for n >= 2, n^21 already exceeds the budget: cap the power there
        if n >= 2 and d >= 1 and n ** min(d, 21) * len(table) > MAX_GROUP_ORDER:
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
    w = np.zeros(g.size, dtype=complex)
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise ParseError(f"measure file: atom {i} is not an object")
        try:
            a = tuple(int(v) for v in _integral(atom["a"], f"measure file: atom {i} a"))
            k = int(_integral(atom.get("k", 0), f"measure file: atom {i} k"))
            weight = float(atom.get("re", 0.0)) + 1j * float(atom.get("im", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"measure file: atom {i} malformed ({exc})") from exc
        if len(a) != g.abelian.rank:
            raise ParseError(
                f"measure file: atom {i} has rank {len(a)}, group has rank {g.abelian.rank}")
        if not 0 <= k < g.k.order:
            raise ParseError(
                f"measure file: atom {i} has k={k} outside [0, {g.k.order})")
        w[g.index(GElem(a, k))] += weight
    if not np.isfinite(w).all():
        raise ParseError("measure file: weights must be finite")
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

    rows = [
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
    return rows


def _classify_exit(v: Verdict) -> int:
    if v.consistency:
        return 2
    indeterminate = (
        v.sr.verdict.value == "INDETERMINATE"
        or v.s.verdict.value == "INDETERMINATE"
        or not v.empirical_mixing.conclusive
        or not v.empirical_ergodic.conclusive
        or not v.weak_mixing_empirical.conclusive
    )
    return 3 if indeterminate else 0


def _cmd_classify(args) -> int:
    cfg = RunConfig(args.group, args.measure, tol=args.tol,
                    n_max=args.n_max, format=args.format)
    g = load_group(args.group)
    if g.size > MAX_CLASSIFY_ORDER:
        raise ParseError(f"classify: |G| = {g.size} exceeds {MAX_CLASSIFY_ORDER} elements")
    mu = load_measure(args.measure, g)
    verdict = cross_check(mu, tol=cfg.tol, mixing_n_max=cfg.n_max)
    payload = {**_tool_stamp(cfg, ("tol", "n_max"), cesaro_n_max=CESARO_N_MAX,
                             weak_mixing_seed=WEAK_MIXING_SEED),
               "report": verdict.to_dict()}
    _emit(_render_rows(_classify_rows(verdict), cfg.format, payload), args.out)
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
    cfg = RunConfig(args.group, args.measure, tol=args.tol, format=args.format)
    g = load_group(args.group)
    mu = load_measure(args.measure, g)
    report = verify_srf(mu, tol=cfg.tol)
    rows = _spectral_rows(report.per_orbit, report.lambda0_complement)
    rows.append({
        "block": "formula",
        "spectral_radius": f"{report.formula_radius:.12g}",
        "op_norm": f"{report.gelfand_radius_estimate:.12g}",
        "one_in_spectrum": report.passed,
        "margin": f"{report.formula_gap:.6g}",
    })
    payload = {**_tool_stamp(cfg, ("tol",)), "report": report.to_dict()}
    _emit(_render_rows(rows, cfg.format, payload), args.out)
    return 0 if report.passed else 2


def _cmd_spectrum(args) -> int:
    cfg = RunConfig(args.group, args.measure, tol=args.tol, format=args.format)
    g = load_group(args.group)
    mu = load_measure(args.measure, g)
    per_orbit, comp = orbit_spectra(mu, tol=cfg.tol)
    payload = {**_tool_stamp(cfg, ("tol",)),
               "report": {"per_orbit": [o.to_dict() for o in per_orbit],
                          "lambda0_complement": comp.to_dict()}}
    _emit(_render_rows(_spectral_rows(per_orbit, comp), cfg.format, payload), args.out)
    return 0


def _dyadic_upto(n: int) -> List[int]:
    out = []
    v = 1
    while v <= n:
        out.append(v)
        v *= 2
    if out[-1] != n:
        out.append(n)
    return out


def _cmd_simulate(args) -> int:
    cfg = RunConfig(args.group, args.measure, format=args.format, seed=args.seed)
    if args.steps < 1 or args.trials < 1:
        raise ParseError(f"need --steps >= 1 and --trials >= 1, got {args.steps}, {args.trials}")
    g = load_group(args.group)
    mu = load_measure(args.measure, g)
    ns = _dyadic_upto(args.steps)
    empirical = empirical_distributions(g, mu, ns, args.trials, cfg.seed)
    rows = [{"n": n,
             "tv_exact": f"{tv_to_uniform(exact):.12g}",
             "tv_empirical": f"{tv_to_uniform(emp):.12g}"}
            for n, exact, emp in zip(ns, exact_powers(mu, ns), empirical)]
    payload = {**_tool_stamp(cfg, ("seed",)), "trials": args.trials, "steps": args.steps,
               "rows": rows}
    _emit(_render_rows(rows, cfg.format, payload), args.out)
    return 0


def _parse_n_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"--n-list: {exc}") from exc
    if not values or any(v < 3 for v in values):
        raise ParseError("--n-list needs integers >= 3")
    return values


def _cmd_rosenblatt(args) -> int:
    ns = _parse_n_list(args.n_list)
    t, lam = eigen_parameter()
    rows = []
    for n in ns:
        r = defect_norm(t, n)
        rows.append({"n": n, "direct": f"{r.direct:.12g}",
                     "closed_form": f"{r.closed_form:.12g}"})
    payload = {
        **_tool_stamp(None),
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
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--n-max", type=int, default=1024, dest="n_max")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("verify-srf", help="radius formula check on one measure")
    _add_io_flags(p)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_verify_srf)

    p = subs.add_parser("spectrum", help="per-block radius, norm, and margin")
    _add_io_flags(p)
    p.add_argument("--tol", type=float, default=1e-8,
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
