"""Randomized identity suite cross-checking the spectral measure paths
against brute-force computations on small random instances.

Each identity is exercised on freshly drawn (function, distribution,
variable-set) triples; a run reports the worst deviation seen per identity
so regressions show up as magnitudes, not just booleans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures, reference
from .boolfn import ProductDist, conditional_expectation, indices_of, transform
from .sampling import random_threshold_fn, sample_random_function

TOL = 1e-9


@dataclass(frozen=True)
class IdentityReport:
    name: str
    instances: int
    worst: float
    passed: bool


def _random_instance(rng: np.random.Generator, max_n: int):
    n = int(rng.integers(1, max_n + 1))
    f = sample_random_function(n, rng)
    d = ProductDist(tuple(rng.uniform(0.05, 0.95, size=n)))
    mask = int(rng.integers(0, 1 << n))
    return f, d, mask


def _deviations(rng: np.random.Generator, max_n: int):
    """(identity, deviation) pairs on one fresh instance; an identity passes
    when its worst deviation over all instances is at most TOL."""
    f, d, mask = _random_instance(rng, max_n)
    s = transform(f, d)

    yield "parseval", abs(float(np.sum(s.coeffs ** 2)) - 1.0)

    # the exact bound is H(f | X_mask) by the spectral path
    bounds = measures.entropy_bounds(s, mask)
    h_def = reference.cond_entropy_definitional(f, d, mask)
    yield "cond_entropy_spectral_vs_definitional", abs(bounds.exact - h_def)
    yield "entropy_sandwich", max(bounds.lower - bounds.exact, bounds.exact - bounds.upper)

    if mask:
        lhs, rhs = measures.mi_influence_bound_check(s, mask)
        yield "sensitivity_mi_bound", rhs - lhs

    i = int(rng.integers(0, f.arity))
    inf, ratio = measures.influence_entropy_identity(s, i)
    yield "influence_entropy_ratio", abs(inf - ratio)

    spectral_indep = measures.independence_test(s, mask, TOL)
    brute_indep = reference.independent_definitional(f, d, mask, TOL)
    if spectral_indep != brute_indep:
        yield "independence_vs_factorization", math.inf

    xa = {p: (1 if rng.random() < 0.5 else -1) for p in indices_of(mask)}
    lhs_ce = conditional_expectation(s, mask, xa)
    rhs_ce = reference.conditional_mean_definitional(f, d, mask, xa)
    yield "conditional_expectation_lemma", abs(lhs_ce - rhs_ce)

    mi_total = measures.mutual_information(s, (1 << f.arity) - 1)
    mi_sum = measures._left_sum(
        measures.mutual_information(s, [1 << j for j in range(f.arity)]).tolist())
    yield "mi_chain_bound", mi_sum - mi_total
    yield "mi_chain_bound", mi_total - 1.0

    fu, _ = random_threshold_fn(int(rng.integers(1, max_n + 1)), rng)
    du = ProductDist(tuple(rng.uniform(0.05, 0.95, size=fu.arity)))
    su = transform(fu, du)
    rows = measures.unate_coefficient_check(su)
    via = measures._mi_single(su.coeffs[:1], np.array([row[2] for row in rows]),
                              np.arange(fu.arity), du)
    direct = measures.mutual_information(su, [1 << j for j, _, _ in rows])
    for (_, coeff, product), mi_via_inf, mi_direct in zip(rows, via.tolist(), direct.tolist()):
        yield "unate_singleton_coefficient", abs(coeff - product)
        yield "unate_mi_from_influence", abs(mi_direct - mi_via_inf)


def run_selftest(trials: int = 2000, max_n: int = 8, seed: int = 0) -> list[IdentityReport]:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys((  # in report order
        "parseval", "cond_entropy_spectral_vs_definitional", "entropy_sandwich",
        "sensitivity_mi_bound", "influence_entropy_ratio", "independence_vs_factorization",
        "conditional_expectation_lemma", "mi_chain_bound", "unate_singleton_coefficient",
        "unate_mi_from_influence"), 0.0)
    for _ in range(trials):
        for name, deviation in _deviations(rng, max_n):
            worst[name] = max(worst[name], deviation)
    return [IdentityReport(name, trials, w, w <= TOL) for name, w in worst.items()]


def format_reports(reports: list[IdentityReport]) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<42} instances={r.instances}  worst={r.worst:.3e}")
    return "\n".join(lines)
