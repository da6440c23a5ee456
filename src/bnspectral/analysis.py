"""Network-level analyses over a collapsed feed-forward network.

Determinative power of an input is the sum over nodes of the single-input
mutual information; ranking the inputs by it yields the permutation used
for the additive uncertainty curve A(l).  Baseline variants rebuild the
network with randomized functions or topology and repeat the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import ArityCapError, ProductDist, Spectrum, transform
from .measures import (
    avg_sensitivity_spectral,
    cond_entropy_spectral,
    mi_spectral,
)
from .netlang import (
    CollapsedNetwork,
    LocalNetwork,
    LocalNode,
    Network,
    collapse_local,
    localize,
)
from .sampling import sample_random_function, sample_random_unate

BASELINE_MODES = (
    "exchange-random",
    "exchange-unate",
    "random-topology-random",
    "random-topology-unate",
)


@dataclass(frozen=True)
class RankingResult:
    """D(j) per input, and the inputs ordered by non-increasing D(j)."""

    d_values: dict[str, float]
    tau: tuple[str, ...]


@dataclass(frozen=True)
class UncertaintyCurve:
    points: tuple[tuple[int, float], ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


@dataclass(frozen=True)
class SensitivityRecord:
    name: str
    in_degree: int
    avg_sensitivity: float
    prob_one: float
    poincare_lower: float


@dataclass(frozen=True)
class BaselineSpec:
    mode: str
    trials: int
    seed: int
    out_degree: int = 8

    def __post_init__(self):
        if self.mode not in BASELINE_MODES:
            raise ValueError(f"unknown baseline mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class BaselineResult:
    mode: str
    trials: int
    seed: int
    mean: UncertaintyCurve
    stddev: tuple[float, ...]
    resampled: int


def _check_dist(c: CollapsedNetwork, d: ProductDist) -> None:
    if d.arity != len(c.inputs):
        raise ValueError(
            f"distribution covers {d.arity} inputs, network declares {len(c.inputs)}")


def _node_setup(c: CollapsedNetwork, d: ProductDist) -> list[tuple[ProductDist, Spectrum]]:
    """Per-node marginal distribution and spectrum, in definition order."""
    rank = {name: i for i, name in enumerate(c.inputs)}
    out = []
    for node in c.nodes:
        sub = d.marginal([rank[name] for name in node.inputs])
        out.append((sub, transform(node.fn, sub)))
    return out


def determinative_power(c: CollapsedNetwork, d: ProductDist) -> RankingResult:
    """Sum the single-input mutual information of every node, per input.

    Inputs outside a node's relevant set contribute nothing to it (their
    singleton coefficients vanish), so only relevant positions are summed.
    Ties in the ranking break lexicographically by input name.
    """
    _check_dist(c, d)
    totals = {name: 0.0 for name in c.inputs}
    for node, (sub, spec) in zip(c.nodes, _node_setup(c, d)):
        for t, name in enumerate(node.inputs):
            totals[name] += mi_spectral(spec, sub, 1 << t)
    tau = tuple(sorted(totals, key=lambda name: (-totals[name], name)))
    return RankingResult(totals, tau)


def uncertainty_curve(c: CollapsedNetwork, d: ProductDist,
                      order: tuple[str, ...] | list[str],
                      L: int | None = None) -> UncertaintyCurve:
    """A(l) = sum of per-node conditional entropies given the first l inputs
    of ``order``, for l = 0..L."""
    _check_dist(c, d)
    order = tuple(order)
    if len(set(order)) != len(order) or not set(order) <= set(c.inputs):
        raise ValueError("order must list distinct declared inputs")
    if L is None:
        L = len(order)
    if not 0 <= L <= len(order):
        raise ValueError(f"L = {L} outside 0..{len(order)}, the ordered inputs")

    setup = _node_setup(c, d)
    known_masks = [0] * len(c.nodes)
    h_values = [cond_entropy_spectral(spec, sub, 0) for sub, spec in setup]
    position = {name: {i: node.inputs.index(name) for i, node in enumerate(c.nodes)
                       if name in node.inputs}
                for name in order}

    points = [(0, float(sum(h_values)))]
    for l in range(1, L + 1):
        name = order[l - 1]
        for i, t in position[name].items():
            known_masks[i] |= 1 << t
            sub, spec = setup[i]
            h_values[i] = cond_entropy_spectral(spec, sub, known_masks[i])
        points.append((l, float(sum(h_values))))
    return UncertaintyCurve(tuple(points))


def sensitivity_scatter(c: CollapsedNetwork, d: ProductDist) -> list[SensitivityRecord]:
    """Per node: in-degree, average sensitivity, output bias, and the
    variance-based lower bound Var(f) min_i 1/sigma_i^2."""
    _check_dist(c, d)
    records = []
    for node, (sub, spec) in zip(c.nodes, _node_setup(c, d)):
        p1 = (1.0 + spec.coeff(0)) / 2.0
        var = 4.0 * p1 * (1.0 - p1)
        if node.fn.arity:
            lower = var * float(np.min(1.0 / sub.sigma ** 2))
        else:
            lower = 0.0
        records.append(SensitivityRecord(
            name=node.name,
            in_degree=node.fn.arity,
            avg_sensitivity=avg_sensitivity_spectral(spec, sub),
            prob_one=p1,
            poincare_lower=lower,
        ))
    return records


def _exchanged_local(ln: LocalNetwork, rng: np.random.Generator, unate: bool) -> LocalNetwork:
    """Swap every node's function for a random one of the same in-degree."""
    nodes = []
    for node in ln.nodes:
        k = len(node.args)
        fn = (sample_random_unate(k, rng, node.args) if unate
              else sample_random_function(k, rng, node.args))
        nodes.append(LocalNode(node.name, node.args, fn))
    return LocalNetwork(ln.inputs, tuple(nodes))


def _random_topology_local(inputs: tuple[str, ...], node_names: tuple[str, ...],
                           rng: np.random.Generator, unate: bool,
                           out_degree: int) -> LocalNetwork:
    """Single-layer random wiring: every input feeds ``out_degree`` distinct
    randomly chosen output nodes; unfed nodes become constants."""
    m = len(node_names)
    if m < out_degree:
        raise ValueError(f"need at least {out_degree} nodes for out-degree {out_degree}")
    fan_in: dict[str, list[str]] = {name: [] for name in node_names}
    for inp in inputs:
        targets = rng.choice(m, size=out_degree, replace=False)
        for t in sorted(int(t) for t in targets):
            fan_in[node_names[t]].append(inp)
    nodes = []
    for name in node_names:
        args = tuple(fan_in[name])
        k = len(args)
        fn = (sample_random_unate(k, rng, args) if unate
              else sample_random_function(k, rng, args))
        nodes.append(LocalNode(name, args, fn))
    return LocalNetwork(inputs, tuple(nodes))


MAX_TRIAL_RESAMPLES = 1000


def baseline_curves(net: Network, spec: BaselineSpec, d: ProductDist,
                    L: int | None = None,
                    cap: int | None = None) -> BaselineResult:
    """Mean and sample standard deviation of A(l) over randomized trials.

    Each trial rebuilds the network per the mode, collapses it, ranks the
    inputs by its own determinative power, and computes its own curve.  A
    trial whose collapse exceeds the arity cap is resampled and counted.
    """
    ln = localize(net, cap)
    if L is None:
        L = len(net.inputs)
    seq = np.random.SeedSequence(spec.seed)
    curves = np.zeros((spec.trials, L + 1))
    resampled = 0
    done = 0
    while done < spec.trials:
        if resampled > MAX_TRIAL_RESAMPLES:
            raise RuntimeError(
                f"gave up after {resampled} baseline trials exceeded the arity cap")
        child = seq.spawn(1)[0]
        rng = np.random.default_rng(child)
        try:
            if spec.mode == "exchange-random":
                trial_ln = _exchanged_local(ln, rng, unate=False)
            elif spec.mode == "exchange-unate":
                trial_ln = _exchanged_local(ln, rng, unate=True)
            else:
                node_names = tuple(n.name for n in ln.nodes)
                trial_ln = _random_topology_local(
                    ln.inputs, node_names, rng,
                    unate=spec.mode.endswith("unate"),
                    out_degree=spec.out_degree)
            collapsed = collapse_local(trial_ln, cap)
        except ArityCapError:
            resampled += 1
            continue
        ranking = determinative_power(collapsed, d)
        curve = uncertainty_curve(collapsed, d, ranking.tau, L)
        curves[done] = curve.values
        done += 1
    mean = curves.mean(axis=0)
    std = curves.std(axis=0, ddof=1) if spec.trials > 1 else np.zeros(L + 1)
    return BaselineResult(
        mode=spec.mode,
        trials=spec.trials,
        seed=spec.seed,
        mean=UncertaintyCurve(tuple((l, float(v)) for l, v in enumerate(mean))),
        stddev=tuple(float(v) for v in std),
        resampled=resampled,
    )
