"""Per-layer metrics from a traced run.

The layers are the program's modules. Their public functions are wrapped
by spans.install; the probes below add counts that a wrapper can compute
from a call's arguments. Byte counts are computed from array shapes, not
measured.
"""
from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

import numpy as np

from spans import Recorder, install
from workloads import LATTICE_LADDER

LAYERS = ("groups", "measures", "reps", "spectral", "classify", "simulate",
          "rosenblatt", "cli", "suite")
# families binds build_motion_group; it and errors do no work of their own
NAMESPACES = ("motionwalk",) + tuple(f"motionwalk.{m}" for m in LAYERS + ("families",))

# (name, unit, better); every traced run reports all of them, with 0 where
# the workload never enters the layer
PER_LAYER: List[Tuple[str, str, str]] = [
    ("groups.build_s", "s", "lower"),
    ("groups.mult_table_s", "s", "lower"),
    ("groups.mult_table_mb", "MB", "lower"),
    ("groups.dual_orbits_calls", "count", "lower"),
    ("groups.dual_orbits_s", "s", "lower"),
    ("measures.convolve_calls", "count", "lower"),
    ("measures.convolve_s", "s", "lower"),
    ("measures.convolve_gather_share", "ratio", "lower"),
    ("measures.gather_mb", "MB", "lower"),
    ("reps.fourier_calls", "count", "lower"),
    ("reps.fourier_s", "s", "lower"),
    ("reps.rep_of_measure_calls", "count", "lower"),
    ("reps.rep_of_measure_s", "s", "lower"),
    ("reps.blocks_per_orbit", "ratio", "lower"),
    ("reps.lambda_elem_calls", "count", "lower"),
    ("reps.lambda_elem_s", "s", "lower"),
    ("spectral.verify_srf_s", "s", "lower"),
    ("spectral.gelfand_s", "s", "lower"),
    ("spectral.gelfand_squarings", "count", "lower"),
    ("spectral.star_norm_s", "s", "lower"),
    ("spectral.dense_linalg_calls", "count", "lower"),
    ("spectral.dense_linalg_s", "s", "lower"),
    ("classify.check_sr_s", "s", "lower"),
    ("classify.check_s_s", "s", "lower"),
    ("classify.adapted_s", "s", "lower"),
    ("classify.aperiodic_s", "s", "lower"),
    ("classify.mixing_s", "s", "lower"),
    ("classify.ergodic_s", "s", "lower"),
    ("classify.weak_mixing_s", "s", "lower"),
    ("simulate.exact_power_s", "s", "lower"),
    ("simulate.sample_path_s", "s", "lower"),
    ("simulate.trial_steps_per_s", "1/s", "higher"),
    ("simulate.uniforms_mb", "MB", "lower"),
    ("rosenblatt.eigen_parameter_s", "s", "lower"),
    ("rosenblatt.defect_norm_s", "s", "lower"),
] + [(f"rosenblatt.defect_norm_s.n{n}", "s", "lower") for n in LATTICE_LADDER] + [
    ("cli.load_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("suite.acceptance_suite_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

DENSE_LINALG = ("spectral.spectral_radius", "spectral.op_norm", "spectral.one_in_spectrum")


def _probe_convolve(rec: Recorder, mu, nu) -> None:
    # mirrors the branch rule in measures.convolve
    g = mu.group
    sparse = min(np.count_nonzero(mu.weights), np.count_nonzero(nu.weights))
    if sparse > max(8, g.size // 4):
        rec.counts["convolve_gather_calls"] += 1
        rec.counts["gather_mb"] += 16.0 * g.size ** 2 / 1e6


def _probe_mult_table(rec: Recorder, g) -> None:
    # the table is built on the first call on each group
    if rec.first(("mult_table", g)):
        rec.counts["mult_table_mb"] += 4.0 * g.size ** 2 / 1e6


def _probe_sample_path(rec: Recorder, g, mu, cfg) -> None:
    rec.counts["trial_steps"] += cfg.trials * cfg.steps
    rec.counts["uniforms_mb"] = max(rec.counts["uniforms_mb"], 8.0 * cfg.trials * cfg.steps / 1e6)


PROBES = {
    "measures.convolve": _probe_convolve,
    "groups.mult_table": _probe_mult_table,
    "simulate.sample_path": _probe_sample_path,
}


def install_all(rec: Recorder):
    """Wrap the program's layers; returns the function that unwraps them."""
    from motionwalk.groups import MotionGroup

    namespaces = [importlib.import_module(m) for m in NAMESPACES]
    methods = [(MotionGroup, "mult_table", "groups"), (MotionGroup, "inv_perm", "groups")]
    return install(rec, namespaces, LAYERS, methods, PROBES)


def orbit_count(g) -> int:
    """Number of K-orbits on the characters, by Burnside's lemma."""
    n, d = g.abelian.modulus, g.abelian.rank
    chars = np.indices((n,) * d).reshape(d, n ** d).T
    fixed = sum(int(np.all((chars @ m) % n == chars, axis=1).sum()) for m in g.k.action)
    return fixed // g.k.order


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, ops, traced_s: float, untraced_s: float,
                  untraced_cpu_s: float) -> Dict[str, float]:
    """Values for every PER_LAYER name, over one traced set-up plus one
    traced pass of ``ops``."""
    c = rec.counts
    orbits: Dict[object, int] = {}
    measure_orbits = 0
    for op in ops:
        if op.group is not None:
            if op.group not in orbits:
                orbits[op.group] = orbit_count(op.group)
            measure_orbits += orbits[op.group]
    blocks = rec.calls("reps.fourier") + rec.calls("reps.rep_of_measure")
    convolves = rec.calls("measures.convolve")
    defect = {f"rosenblatt.defect_norm_s.{label}": s
              for (label, name), s in rec.op_top_s.items()
              if name == "rosenblatt.defect_norm"}
    v = {
        "groups.build_s": rec.total_s("groups.build_motion_group"),
        "groups.mult_table_s": rec.total_s("groups.mult_table"),
        "groups.mult_table_mb": c["mult_table_mb"],
        "groups.dual_orbits_calls": rec.calls("groups.dual_orbits"),
        "groups.dual_orbits_s": rec.total_s("groups.dual_orbits"),
        "measures.convolve_calls": convolves,
        "measures.convolve_s": rec.total_s("measures.convolve"),
        "measures.convolve_gather_share": _ratio(c["convolve_gather_calls"], convolves),
        "measures.gather_mb": c["gather_mb"],
        "reps.fourier_calls": rec.calls("reps.fourier"),
        "reps.fourier_s": rec.total_s("reps.fourier"),
        "reps.rep_of_measure_calls": rec.calls("reps.rep_of_measure"),
        "reps.rep_of_measure_s": rec.total_s("reps.rep_of_measure"),
        "reps.blocks_per_orbit": _ratio(blocks, measure_orbits),
        "reps.lambda_elem_calls": rec.calls("reps.lambda_elem"),
        "reps.lambda_elem_s": rec.total_s("reps.lambda_elem"),
        "spectral.verify_srf_s": rec.total_s("spectral.verify_srf"),
        "spectral.gelfand_s": rec.total_s("spectral.gelfand_radius"),
        "spectral.gelfand_squarings": rec.edges[("spectral.gelfand_sequence", "measures.convolve")],
        "spectral.star_norm_s": rec.total_s("spectral.star_norm"),
        "spectral.dense_linalg_calls": sum(rec.calls(n) for n in DENSE_LINALG),
        "spectral.dense_linalg_s": rec.total_s(*DENSE_LINALG),
        "classify.check_sr_s": rec.total_s("classify.check_sr"),
        "classify.check_s_s": rec.total_s("classify.check_s"),
        "classify.adapted_s": rec.total_s("classify.adapted"),
        "classify.aperiodic_s": rec.total_s("classify.strictly_aperiodic_check"),
        "classify.mixing_s": rec.total_s("classify.empirical_mixing"),
        "classify.ergodic_s": rec.total_s("classify.empirical_ergodic"),
        "classify.weak_mixing_s": rec.total_s("classify.empirical_weak_mixing"),
        "simulate.exact_power_s": rec.total_s("simulate.exact_power"),
        "simulate.sample_path_s": rec.total_s("simulate.sample_path"),
        "simulate.trial_steps_per_s": _ratio(c["trial_steps"], rec.total_s("simulate.sample_path")),
        "simulate.uniforms_mb": c["uniforms_mb"],
        "rosenblatt.eigen_parameter_s": rec.total_s("rosenblatt.eigen_parameter"),
        "rosenblatt.defect_norm_s": rec.total_s("rosenblatt.defect_norm"),
        "cli.load_s": rec.total_s("cli.load_group", "cli.load_measure"),
        "cli.self_s": rec.self_s("cli.main"),
        "suite.acceptance_suite_s": rec.total_s("suite.acceptance_suite"),
        "process.cpu_s": untraced_cpu_s,
        "trace.overhead_ratio": _ratio(traced_s, untraced_s),
        "trace.unattributed_s": traced_s - rec.top_s,
    }
    for name, _, _ in PER_LAYER:
        if name.startswith("rosenblatt.defect_norm_s."):
            v[name] = defect.get(name, 0.0)
    return v
