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


def run_selftest(trials: int = 2000, max_n: int = 8, seed: int = 0,
                 tol: float = TOL) -> list[IdentityReport]:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = {
        "parseval": 0.0,
        "cond_entropy_spectral_vs_definitional": 0.0,
        "entropy_sandwich": 0.0,
        "sensitivity_mi_bound": 0.0,
        "influence_entropy_ratio": 0.0,
        "independence_vs_factorization": 0.0,
        "conditional_expectation_lemma": 0.0,
        "mi_chain_bound": 0.0,
        "unate_singleton_coefficient": 0.0,
        "unate_mi_from_influence": 0.0,
    }

    for _ in range(trials):
        f, d, mask = _random_instance(rng, max_n)
        s = transform(f, d)

        worst["parseval"] = max(worst["parseval"],
                                abs(float(np.sum(s.coeffs ** 2)) - 1.0))

        # the exact bound is H(f | X_mask) by the spectral path
        bounds = measures.entropy_bounds(s, mask)
        h_def = reference.cond_entropy_definitional(f, d, mask)
        worst["cond_entropy_spectral_vs_definitional"] = max(
            worst["cond_entropy_spectral_vs_definitional"], abs(bounds.exact - h_def))

        viol = max(bounds.lower - bounds.exact, bounds.exact - bounds.upper)
        worst["entropy_sandwich"] = max(worst["entropy_sandwich"], viol)

        if mask:
            lhs, rhs = measures.mi_influence_bound_check(s, mask)
            worst["sensitivity_mi_bound"] = max(worst["sensitivity_mi_bound"], rhs - lhs)

        i = int(rng.integers(0, f.arity))
        inf, ratio = measures.influence_entropy_identity(s, i)
        worst["influence_entropy_ratio"] = max(worst["influence_entropy_ratio"],
                                               abs(inf - ratio))

        spectral_indep = measures.independence_test(s, mask, tol)
        brute_indep = reference.independent_definitional(f, d, mask, tol)
        if spectral_indep != brute_indep:
            worst["independence_vs_factorization"] = math.inf

        xa = {p: (1 if rng.random() < 0.5 else -1) for p in indices_of(mask)}
        lhs_ce = conditional_expectation(s, mask, xa)
        rhs_ce = reference.conditional_mean_definitional(f, d, mask, xa)
        worst["conditional_expectation_lemma"] = max(
            worst["conditional_expectation_lemma"], abs(lhs_ce - rhs_ce))

        mi_total = measures.mutual_information(s, (1 << f.arity) - 1)
        mi_sum = sum(measures.mutual_information(s, 1 << j) for j in range(f.arity))
        worst["mi_chain_bound"] = max(worst["mi_chain_bound"],
                                      mi_sum - mi_total, mi_total - 1.0)

        fu, _ = random_threshold_fn(int(rng.integers(1, max_n + 1)), rng)
        du = ProductDist(tuple(rng.uniform(0.05, 0.95, size=fu.arity)))
        su = transform(fu, du)
        rows = measures.unate_coefficient_check(su)
        via = measures._mi_single(su.coeffs[:1], np.array([row[2] for row in rows]), du.p)
        for (j, coeff, product), mi_via_inf in zip(rows, via.tolist()):
            worst["unate_singleton_coefficient"] = max(
                worst["unate_singleton_coefficient"], abs(coeff - product))
            mi_direct = measures.mutual_information(su, 1 << j)
            worst["unate_mi_from_influence"] = max(
                worst["unate_mi_from_influence"], abs(mi_direct - mi_via_inf))

    return [IdentityReport(name, trials, w, w <= tol) for name, w in worst.items()]


def format_reports(reports: list[IdentityReport]) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<42} instances={r.instances}  worst={r.worst:.3e}")
    return "\n".join(lines)
