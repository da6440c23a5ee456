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
    ProductDist,
    _check_cap,
    _subset_index,
    kron_apply,
)
from .measures import (
    _clamped_mi,
    _entropy_given,
    _entropy_of_expectations,
    _mi_single,
    _sensitivity_sum,
)
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
    """Node spectra of a collapsed network ``c`` under ``d``, one group per
    block of ``c``.  Each entry of ``groups`` is (k, rows, idx, coeffs): the
    block's node positions in definition order, their supports as an (m, k)
    array, and the (m, 2^k) coefficients, row r equal to
    ``transform(node.fn, d.marginal(idx[r]))``; compared and hashed by identity."""

    c: CollapsedNetwork
    d: ProductDist
    groups: tuple[tuple[int, list[int], np.ndarray, np.ndarray], ...]


def node_spectra(c: CollapsedNetwork, d: ProductDist) -> NodeSpectra:
    """Transform every node of ``c`` under the marginal of ``d`` on its
    inputs: one ``kron_apply`` per block of ``c``, on its table rows as signs."""
    if d.arity != len(c.inputs):
        raise ValueError(
            f"distribution covers {d.arity} inputs, network declares {len(c.inputs)}")
    return NodeSpectra(c, d, tuple(
        (k, rows, idx, kron_apply(bits * 2.0 - 1.0, d._forward[idx].swapaxes(0, 1)))
        for k, rows, idx, bits in c.blocks))


def determinative_power(s: NodeSpectra) -> RankingResult:
    """Sum the single-input mutual information of every node, per input.

    MI(f; x_i) reads only the empty-set and singleton coefficients: it is
    ``measures._mi_single``, H(f) less the row kernel
    ``measures._entropy_given`` on the pair (c_0, c_i), one call per arity
    group.  A node of one input is known given it, so by the zero rule of
    ``mutual_information`` its MI is H(f).  Each MI has the bits of
    ``mutual_information`` on the node's own spectrum.  Ties in the ranking
    break lexicographically by input name.
    """
    c, d = s.c, s.d
    mi = np.zeros((len(c.names), max((k for k, *_ in s.groups), default=0)))  # node, input
    for k, rows, idx, coeffs in s.groups:
        mi[rows, :k] = (_entropy_of_expectations(coeffs[:, :1].copy()) if k == 1 else
                        _mi_single(coeffs[:, :1], coeffs[:, 1 << np.arange(k)], idx, d))
    # accumulate in definition order, then input order, so sums (and ties) are stable
    totals = [0.0] * len(c.inputs)
    for support, values in zip(c.supports, _clamped_mi(mi).tolist()):
        for r, v in zip(support, values):
            totals[r] += v
    d_values = dict(zip(c.inputs, totals))
    return RankingResult(d_values, tuple(sorted(d_values, key=lambda n: (-d_values[n], n))))


def uncertainty_curve(s: NodeSpectra, order: tuple[str, ...] | list[str],
                      L: int | None = None) -> UncertaintyCurve:
    """A(l) = sum of per-node conditional entropies given the first l inputs
    of ``order``, for l = 0..L.

    A node of arity k only ever conditions on the first j of its inputs to
    appear in ``order``, j = 0..k.  The k entropies at j < k are computed per
    node up front, and the (k + 1)-th is 0: all k inputs known fix the
    output.  They are rows of ``measures._entropy_given``, the kernel behind
    ``mutual_information``, one batch per j over every k > j.
    """
    c, d = s.c, s.d
    order = tuple(order)
    if len(set(order)) != len(order) or not set(order) <= set(c.inputs):
        raise ValueError("order must list distinct declared inputs")
    if L is None:
        L = len(order)
    if not 0 <= L <= len(order):
        raise ValueError(f"L = {L} outside 0..{len(order)}, the ordered inputs")

    position = {name: l for l, name in enumerate(order[:L])}
    pos = [position.get(name, L) for name in c.inputs]  # by rank; L past the known
    firsts = [np.argsort(np.take(pos, idx), axis=1, kind="stable") for _, _, idx, _ in s.groups]
    h = np.zeros((len(c.names), max((k for k, *_ in s.groups), default=-1) + 1))  # node, j
    for j in range(h.shape[1] - 1):
        rows, ik, sub = [], [], []
        for (k, g_rows, idx, coeffs), first in zip(s.groups, firsts):
            if k > j:
                first = np.sort(first[:, :j], axis=1)
                rows.append(g_rows)
                ik.append(np.take_along_axis(idx, first, axis=1))
                sub.append(np.take_along_axis(coeffs, _subset_index(first), axis=1))
        h[np.concatenate(rows), j] = _entropy_given(np.concatenate(sub), np.concatenate(ik), d)
    node_h = h.tolist()

    feeds: list[list[int]] = [[] for _ in range(L + 1)]  # nodes by position; L unread
    for i, support in enumerate(c.supports):
        for r in support:
            feeds[pos[r]].append(i)
    steps = [0] * len(c.names)
    # A(l) adds the nodes' entropies to 0.0 one at a time, in definition order,
    # on every Python: np.add.accumulate makes those additions, where builtin
    # sum compensates from Python 3.12 on
    h_now = np.array([0.0] + [values[0] for values in node_h])
    sums = np.empty_like(h_now)
    points = [(0, np.add.accumulate(h_now, out=sums).item(-1))]
    for l, fed in enumerate(feeds[:L], 1):
        for i in fed:
            steps[i] += 1
            h_now[i + 1] = node_h[i][steps[i]]
        points.append((l, np.add.accumulate(h_now, out=sums).item(-1)))
    return UncertaintyCurve(tuple(points))


def sensitivity_scatter(s: NodeSpectra) -> list[SensitivityRecord]:
    """Per node: in-degree, average sensitivity, output bias, and the
    variance-based lower bound Var(f) min_i 1/sigma_i^2.

    The average sensitivity is ``measures._sensitivity_sum``, w = ``ProductDist.inv_var``.
    """
    c, d = s.c, s.d
    records: list[SensitivityRecord | None] = [None] * len(c.names)
    for k, rows, idx, coeffs in s.groups:
        inv_var = d.inv_var[idx]
        p1 = (1.0 + coeffs[:, 0]) / 2.0
        lower = 4.0 * p1 * (1.0 - p1) * np.min(inv_var, axis=1) if k else np.zeros(len(rows))
        avg = _sensitivity_sum(coeffs, inv_var)
        for r, *values in zip(rows.tolist(), avg.tolist(), p1.tolist(), lower.tolist()):
            records[r] = SensitivityRecord(c.names[r], k, *values)
    return records


def _exchanged_local(inputs: tuple[str, ...], defs: list[tuple[str, tuple[str, ...]]],
                     rng: np.random.Generator, unate: bool) -> LocalNetwork:
    """Give every (name, args) definition a random function of its in-degree."""
    tables = ([sample_random_unate(len(args), rng) for _, args in defs] if unate
              else random_tables([len(args) for _, args in defs], rng))
    return LocalNetwork(inputs, tuple(LocalNode(name, args, t)
                                      for (name, args), t in zip(defs, tables)))


def _random_topology_local(inputs: tuple[str, ...], node_names: tuple[str, ...],
                           rng: np.random.Generator, cap: int | None = None
                           ) -> list[tuple[str, tuple[str, ...]]]:
    """Single-layer random wiring as (name, args) definitions: every input
    feeds ``RANDOM_TOPOLOGY_OUT_DEGREE`` distinct randomly chosen nodes;
    unfed nodes get no arguments.  Each node lists its arguments in input
    order, so collapse only prunes its table, with no variable to reorder
    and nothing to compose.  Collapse refuses a fan-in over the cap, so
    that is checked here, before any function is drawn."""
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
