"""Network-level analyses over a collapsed feed-forward network.

``node_spectra`` transforms every node once; D(j), A(l) and the sensitivity
scatter all read that one pass.  D(j), the sum over nodes of the single-input
mutual information, orders the inputs for the uncertainty curve A(l).  Each
baseline trial randomizes the functions or topology and makes its own pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import (
    ArityCapError,
    BoolFn,
    ProductDist,
    _check_cap,
    _product_weights,
    _subset_index,
    kron_apply,
    sign_rows,
)
from .measures import CLAMP_BUDGET, _entropy_of_expectations, _mi_single, _subset_sums
from .netlang import (
    CollapsedNetwork,
    LocalNetwork,
    LocalNode,
    Network,
    collapse_local,
)
from .sampling import random_tables, sample_random_unate

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


@dataclass(frozen=True, eq=False)
class NodeSpectra:
    """Node spectra of a collapsed network ``c`` under ``d``, grouped by
    arity k and transformed one group at a time.  Each entry of ``groups`` is
    (k, rows, idx, coeffs): the group's node indices in definition order,
    each node's input indices into ``d`` as an (m, k) array in the node's
    input order, and the (m, 2^k) coefficients, row r equal to
    ``transform(node.fn, d.marginal(idx[r]))``; compared and hashed by identity."""

    c: CollapsedNetwork
    d: ProductDist
    groups: tuple[tuple[int, list[int], np.ndarray, np.ndarray], ...]


def node_spectra(c: CollapsedNetwork, d: ProductDist) -> NodeSpectra:
    """Transform every node of ``c`` under the marginal of ``d`` on its inputs."""
    if d.arity != len(c.inputs):
        raise ValueError(
            f"distribution covers {d.arity} inputs, network declares {len(c.inputs)}")
    rank = {name: i for i, name in enumerate(c.inputs)}
    groups: dict[int, list[int]] = {}
    for i, node in enumerate(c.nodes):
        groups.setdefault(node.fn.arity, []).append(i)
    out = []
    for k, rows in sorted(groups.items()):
        idx = np.array([[rank[name] for name in c.nodes[i].inputs] for i in rows],
                       dtype=np.int64).reshape(len(rows), k)
        signs = sign_rows([c.nodes[i].fn for i in rows])
        out.append((k, rows, idx, kron_apply(signs, d._forward[idx].swapaxes(0, 1))))
    return NodeSpectra(c, d, tuple(out))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products; each row is summed exactly as ``np.dot`` would."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def determinative_power(s: NodeSpectra) -> RankingResult:
    """Sum the single-input mutual information of every node, per input.

    MI(f; x_i) needs only the empty-set and singleton coefficients, since
    E[f | x_i] = c_0 + c_i phi_i(x_i).  Inputs outside a node's relevant set
    have c_i = 0 and contribute nothing.  Ties in the ranking break
    lexicographically by input name.
    """
    c, d = s.c, s.d
    node_mi: list[list[float]] = [[] for _ in c.nodes]
    for k, rows, idx, coeffs in s.groups:
        mi = _mi_single(coeffs[:, :1], coeffs[:, [1 << t for t in range(k)]], d.p[idx])
        if mi.size and mi.min() < -CLAMP_BUDGET:
            raise ValueError(f"mutual information {mi.min()} below zero beyond tolerance")
        for r, values in zip(rows, np.maximum(mi, 0.0).tolist()):
            node_mi[r] = values
    # accumulate in definition order, then input order, so sums (and ties) are stable
    totals = {name: 0.0 for name in c.inputs}
    for node, values in zip(c.nodes, node_mi):
        for name, v in zip(node.inputs, values):
            totals[name] += v
    tau = tuple(sorted(totals, key=lambda name: (-totals[name], name)))
    return RankingResult(totals, tau)


def uncertainty_curve(s: NodeSpectra, order: tuple[str, ...] | list[str],
                      L: int | None = None) -> UncertaintyCurve:
    """A(l) = sum of per-node conditional entropies given the first l inputs
    of ``order``, for l = 0..L.

    A node of arity k only ever conditions on the first j of its inputs to
    appear in ``order``, j = 0..k, so those k + 1 entropies are computed per
    node up front and the curve steps through them.  They are computed as
    ``cond_entropy_spectral`` computes them, one batch per j over the nodes
    of every arity k >= j.
    """
    c, d = s.c, s.d
    order = tuple(order)
    if len(set(order)) != len(order) or not set(order) <= set(c.inputs):
        raise ValueError("order must list distinct declared inputs")
    if L is None:
        L = len(order)
    if not 0 <= L <= len(order):
        raise ValueError(f"L = {L} outside 0..{len(order)}, the ordered inputs")

    known = order[:L]
    position = {name: l for l, name in enumerate(known)}
    pos = np.array([position.get(name, L) for name in c.inputs], dtype=np.int64)
    firsts = [np.argsort(pos[idx], axis=1, kind="stable") for _, _, idx, _ in s.groups]
    hs = [np.empty((len(rows), k + 1)) for k, rows, _, _ in s.groups]
    for j in range(max((k for k, *_ in s.groups), default=-1) + 1):
        live = [g for g, (k, *_) in enumerate(s.groups) if k >= j]
        ik, sub = [], []
        for g in live:
            _, _, idx, coeffs = s.groups[g]
            first = np.sort(firsts[g][:, :j], axis=1)
            ik.append(np.take_along_axis(idx, first, axis=1))
            sub.append(np.take_along_axis(coeffs, _subset_index(first), axis=1))
        ik = np.concatenate(ik)
        cond = kron_apply(np.concatenate(sub), d._inverse[ik].swapaxes(0, 1))
        h = _row_dot(_product_weights(d.p[ik]), _entropy_of_expectations(cond))
        for g, part in zip(live, np.split(h, np.cumsum([len(hs[g]) for g in live])[:-1])):
            hs[g][:, j] = part
    node_h: list[list[float]] = [[] for _ in c.nodes]
    for (_, rows, _, _), h in zip(s.groups, hs):
        for r, values in zip(rows, h.tolist()):
            node_h[r] = values

    feeds: dict[str, list[int]] = {name: [] for name in known}
    for i, node in enumerate(c.nodes):
        for name in node.inputs:
            if name in feeds:
                feeds[name].append(i)
    steps = [0] * len(c.nodes)
    h_values = [values[0] for values in node_h]
    points = [(0, float(sum(h_values)))]
    for l, name in enumerate(known, 1):
        for i in feeds[name]:
            steps[i] += 1
            h_values[i] = node_h[i][steps[i]]
        points.append((l, float(sum(h_values))))
    return UncertaintyCurve(tuple(points))


def sensitivity_scatter(s: NodeSpectra) -> list[SensitivityRecord]:
    """Per node: in-degree, average sensitivity, output bias, and the
    variance-based lower bound Var(f) min_i 1/sigma_i^2.

    The average sensitivity is sum_S c_S^2 sum_{i in S} 1/sigma_i^2.
    """
    c, d = s.c, s.d
    records: list[SensitivityRecord | None] = [None] * len(c.nodes)
    for k, rows, idx, coeffs in s.groups:
        inv_var = 1.0 / d.sigma[idx] ** 2
        p1 = (1.0 + coeffs[:, 0]) / 2.0
        lower = 4.0 * p1 * (1.0 - p1) * np.min(inv_var, axis=1) if k else np.zeros(len(rows))
        avg = _row_dot(coeffs ** 2, _subset_sums(inv_var))
        for r, *values in zip(rows, avg.tolist(), p1.tolist(), lower.tolist()):
            records[r] = SensitivityRecord(c.nodes[r].name, k, *values)
    return records


def _exchanged_local(inputs: tuple[str, ...], defs: list[tuple[str, tuple[str, ...]]],
                     rng: np.random.Generator, unate: bool) -> LocalNetwork:
    """Give every (name, args) definition a random function of its in-degree."""
    fns = ([sample_random_unate(len(args), rng, args) for _, args in defs] if unate
           else [BoolFn(len(args), args, t) for (_, args), t
                 in zip(defs, random_tables([len(args) for _, args in defs], rng))])
    return LocalNetwork(inputs, tuple(LocalNode(name, args, fn)
                                      for (name, args), fn in zip(defs, fns)))


def _random_topology_local(inputs: tuple[str, ...], node_names: tuple[str, ...],
                           rng: np.random.Generator, cap: int | None = None
                           ) -> list[tuple[str, tuple[str, ...]]]:
    """Single-layer random wiring as (name, args) definitions: every input
    feeds ``RANDOM_TOPOLOGY_OUT_DEGREE`` distinct randomly chosen nodes;
    unfed nodes get no arguments.  Collapse refuses a fan-in over the cap,
    so that is checked here, before any function is drawn."""
    m = len(node_names)
    if m < RANDOM_TOPOLOGY_OUT_DEGREE:
        raise ValueError(f"need at least {RANDOM_TOPOLOGY_OUT_DEGREE} nodes for "
                         f"out-degree {RANDOM_TOPOLOGY_OUT_DEGREE}")
    fan_in: dict[str, list[str]] = {name: [] for name in node_names}
    for inp in inputs:
        targets = rng.choice(m, size=RANDOM_TOPOLOGY_OUT_DEGREE, replace=False)
        for t in sorted(int(t) for t in targets):
            fan_in[node_names[t]].append(inp)
    for name in node_names:
        _check_cap(len(fan_in[name]), cap, name)
    return [(name, tuple(fan_in[name])) for name in node_names]


MAX_TRIAL_RESAMPLES = 1000
RANDOM_TOPOLOGY_OUT_DEGREE = 8


def baseline_curves(net: Network, spec: BaselineSpec, d: ProductDist,
                    L: int | None = None,
                    cap: int | None = None) -> BaselineResult:
    """Mean and sample standard deviation of A(l) over randomized trials.

    Each trial rebuilds the network per the mode, collapses it, ranks the
    inputs by its own determinative power, and computes its own curve.  A
    trial whose collapse exceeds the arity cap is resampled and counted;
    after ``MAX_TRIAL_RESAMPLES`` of them the last ``ArityCapError`` is raised.
    A definition whose direct arity is over the cap is refused in every mode.
    """
    node_names = tuple(name for name, _ in net.defs)
    defs = list(zip(node_names, net.args))
    for name, args in defs:
        _check_cap(len(args), cap, name)
    unate = spec.mode.endswith("unate")
    if L is None:
        L = len(net.inputs)
    seq = np.random.SeedSequence(spec.seed)
    curves = np.zeros((spec.trials, L + 1))
    resampled = 0
    done = 0
    while done < spec.trials:
        child = seq.spawn(1)[0]
        rng = np.random.default_rng(child)
        try:
            trial_defs = (defs if spec.mode.startswith("exchange")
                          else _random_topology_local(net.inputs, node_names, rng, cap))
            collapsed = collapse_local(_exchanged_local(net.inputs, trial_defs, rng, unate), cap)
        except ArityCapError as exc:
            resampled += 1
            if resampled > MAX_TRIAL_RESAMPLES:
                exc.args = (f"gave up after {resampled} baseline trials over the cap; "
                            f"last: {exc}",)
                raise
            continue
        spectra = node_spectra(collapsed, d)
        curves[done] = uncertainty_curve(spectra, determinative_power(spectra).tau, L).values
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
