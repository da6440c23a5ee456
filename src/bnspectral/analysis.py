"""Network-level analyses over a collapsed feed-forward network.

``node_spectra`` transforms every node once; D(j), A(l) and the sensitivity
scatter all read that one pass.  D(j), the sum over nodes of the single-input
mutual information, orders the inputs for the uncertainty curve A(l); both
read one whole-network table of H(f) and every H(f | x_t)
(``NodeSpectra.whole``) and run no loop per node or per arity.  Each
baseline trial randomizes the functions or topology and makes its own pass.
An exchange trial draws new table rows and runs the network's compiled
collapse (``Network.program``) on them; a random-topology trial is wired
and drawn as arrays, its table rows handed straight to the prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .boolfn import (
    ARITY_CAP_DEFAULT,
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
    _sensitivity_sum,
)
from .netlang import (
    CollapsedNetwork,
    LocalNetwork,
    Network,
    _blocks,
    _prune,
    collapse_local,
)
from .sampling import random_rows

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


class WholeNetwork(NamedTuple):
    """Every node of a ``NodeSpectra`` as flat arrays, per node in definition
    order and per entry, one for each input of a node, in (definition,
    input) order."""

    k: np.ndarray  # per node: the arity
    start: np.ndarray  # its first entry
    base: np.ndarray  # the position of its c_0 in NodeSpectra.coeffs
    h: np.ndarray  # H(f)
    node: np.ndarray  # per entry: the node
    ranks: np.ndarray  # the input's rank
    h_given: np.ndarray  # H(f | x_t); 0.0 for a node of one input, known given it


@dataclass(frozen=True, eq=False)
class NodeSpectra:
    """Node spectra of a collapsed network ``c`` under ``d``, one group per
    block of ``c``.  Each entry of ``groups`` is (k, rows, idx, coeffs): the
    block's node positions in definition order, their supports as an (m, k)
    array, and the (m, 2^k) coefficients, row r equal to
    ``transform(node.fn, d.marginal(idx[r]))``: a view of ``coeffs``, which
    holds every group's rows one after another.  ``whole`` holds the same
    nodes, with H(f) and every H(f | x_t), as one ``WholeNetwork``, built
    the first time it is read.  Compared and hashed by identity."""

    c: CollapsedNetwork
    d: ProductDist
    groups: tuple[tuple[int, list[int], np.ndarray, np.ndarray], ...]
    coeffs: np.ndarray

    @cached_property
    def whole(self) -> WholeNetwork:
        """H(f | x_t) is one ``measures._entropy_given`` call on the pairs
        (c_0, c_t) of the nodes of two or more inputs.  H(f) is the entropy
        of c_0 plus 0.0, as ``_entropy_given`` gives it at no variable
        known: a constant's -0.0 becomes 0.0."""
        k = np.zeros(len(self.c.names), dtype=np.int64)
        base = np.zeros_like(k)
        at = 0
        for kk, rows, _, coeffs in self.groups:
            k[rows], base[rows] = kk, at + (np.arange(len(rows)) << kk)
            at += coeffs.size
        start = np.cumsum(k) - k
        node = np.repeat(np.arange(len(k)), k)
        ranks = np.empty(len(node), dtype=np.int64)
        for kk, rows, idx, _ in self.groups:
            ranks[start[rows, None] + np.arange(kk)] = idx
        h_given = np.zeros(len(node))
        two = np.flatnonzero(k[node] > 1)
        at0 = base[node[two]]  # c_0 of each pair; c_t at t = the entry's place in its node
        pairs = np.stack([self.coeffs[at0], self.coeffs[at0 + (1 << (two - start[node[two]]))]],
                         axis=1)
        h_given[two] = _entropy_given(pairs, ranks[two, None], self.d)
        h = _entropy_of_expectations(self.coeffs[base]) + 0.0
        return WholeNetwork(k, start, base, h, node, ranks, h_given)


def _check_dist(d: ProductDist, inputs: tuple[str, ...]) -> None:
    if d.arity != len(inputs):
        raise ValueError(f"distribution covers {d.arity} inputs, network declares {len(inputs)}")


def _check_L(L: int, n: int) -> None:
    if not 0 <= L <= n:
        raise ValueError(f"L = {L} outside 0..{n}, the ordered inputs")


def node_spectra(c: CollapsedNetwork, d: ProductDist) -> NodeSpectra:
    """Transform every node of ``c`` under the marginal of ``d`` on its
    inputs: one ``kron_apply`` per block of ``c``, on its table rows as signs."""
    _check_dist(d, c.inputs)
    coeffs = np.empty(sum(bits.size for *_, bits in c.blocks))
    groups, at = [], 0
    for k, rows, idx, bits in c.blocks:
        group = coeffs[at:at + bits.size].reshape(bits.shape)
        group[...] = kron_apply(bits * 2.0 - 1.0, d._forward[idx].swapaxes(0, 1))
        groups.append((k, rows, idx, group))
        at += bits.size
    return NodeSpectra(c, d, tuple(groups), coeffs)


def determinative_power(s: NodeSpectra) -> RankingResult:
    """Sum the single-input mutual information of every node, per input.

    MI(f; x_i) = H(f) - H(f | x_i), both read from ``s.whole``: the rows of
    ``measures._entropy_given`` that ``mutual_information`` takes on the
    node's own spectrum, zero rule included, so each MI has its bits.  The
    sums add in definition order, then input order, so they (and ties) are
    stable.  Ties in the ranking break lexicographically by input name.
    """
    w = s.whole
    mi = _clamped_mi(w.h[w.node] - w.h_given)
    totals = np.bincount(w.ranks, mi, minlength=len(s.c.inputs))  # one entry at a time
    # with no entries, bincount gives int zeros
    d_values = dict(zip(s.c.inputs, totals.astype(np.float64).tolist()))
    return RankingResult(d_values, tuple(sorted(d_values, key=lambda n: (-d_values[n], n))))


# Rows of A(l) summed at a time: the (l, node) tables of one block are
# CURVE_BLOCK x (N + 1) int64s and float64s, 84 KB each at N = 653, where
# the whole curve's would be 0.8 MB.  At 32 rows a baseline trial's traced
# (tracemalloc) peak was 0.3 MB above the per-node curve's, at 16 0.06 MB.
CURVE_BLOCK = 16


def uncertainty_curve(s: NodeSpectra, order: tuple[str, ...] | list[str],
                      L: int | None = None) -> UncertaintyCurve:
    """A(l) = sum of per-node conditional entropies given the first l inputs
    of ``order``, for l = 0..L.

    A node of arity k only ever conditions on the first j of its inputs to
    appear in ``order``, j = 0..k.  Its entropies at j = 0 and 1 are read
    from ``s.whole``, and at j = k it is 0: all k inputs known fix the
    output.  For each j from 2 on, one ``measures._entropy_given`` call, the
    kernel behind ``mutual_information``, covers every node of more than j
    inputs.  Each A(l) adds its nodes' entropies to 0.0 one at a time, in
    definition order, by ``np.add.accumulate`` over a table of (l, node)
    entries, CURVE_BLOCK rows at a time: builtin ``sum`` compensates from
    Python 3.12 on, and ``np.add.reduce`` sums pairwise.
    """
    c, d, w = s.c, s.d, s.whole
    order = tuple(order)
    if len(set(order)) != len(order) or not set(order) <= set(c.inputs):
        raise ValueError("order must list distinct declared inputs")
    if L is None:
        L = len(order)
    _check_L(L, len(order))

    rank = {name: r for r, name in enumerate(c.inputs)}
    pos = np.full(len(c.inputs), L, dtype=np.int64)  # by rank; L past the known
    pos[[rank[name] for name in order[:L]]] = np.arange(L)
    pos = pos[w.ranks]
    # each node's entries in the order their inputs become known, the rest
    # last in input order, as a stable argsort per node gives them
    known = np.argsort(w.node * (L + 1) + pos, kind="stable")
    # node i's entropy at j inputs known is h[at[i] + j]; h[0] is the 0.0 that A(l) starts from
    at = w.start + np.arange(1, len(w.k) + 1)
    h = np.zeros(len(w.node) + len(w.k) + 1)
    h[at] = w.h
    many = np.flatnonzero(w.k > 1)
    h[at[many] + 1] = w.h_given[known[w.start[many]]]
    for j in range(2, int(w.k.max(initial=0))):
        many = many[w.k[many] > j]
        first = np.sort(known[w.start[many, None] + np.arange(j)] - w.start[many, None], axis=1)
        sub = s.coeffs[w.base[many, None] + _subset_index(first)]
        h[at[many] + j] = _entropy_given(sub, w.ranks[w.start[many, None] + first], d)

    # entry e counts from row pos[e] + 1 of the curve on; the column of node i is i + 1
    row, col = pos + 1, w.node + 1
    now = np.concatenate([[0], at])  # each column's index into h before a block
    sums = np.empty(L + 1)
    for top in range(0, L + 1, CURVE_BLOCK):
        steps = np.zeros((min(CURVE_BLOCK, L + 1 - top), len(now)), dtype=np.int64)
        fed = (row >= top) & (row < top + len(steps))
        steps[row[fed] - top, col[fed]] = 1
        steps[0] += now
        now = np.cumsum(steps, axis=0, out=steps)[-1]
        sums[top:top + len(steps)] = np.add.accumulate(h[steps], axis=1)[:, -1]
    return UncertaintyCurve(tuple(enumerate(sums.tolist())))


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


def _random_topology(inputs: tuple[str, ...], node_names: tuple[str, ...],
                     rng: np.random.Generator, unate: bool, cap: int | None = None
                     ) -> CollapsedNetwork:
    """Single-layer random wiring with random functions, collapsed: every
    input feeds ``RANDOM_TOPOLOGY_OUT_DEGREE`` distinct randomly chosen
    nodes, and each node reads its inputs in input order (an unfed node
    reads none).  Every node reads distinct inputs in ascending order, so
    its table rows go straight to ``netlang._prune``.  A fan-in over the cap
    is refused, the first in node order, before any function is drawn."""
    m = len(node_names)
    if m < RANDOM_TOPOLOGY_OUT_DEGREE:
        raise ValueError(f"need at least {RANDOM_TOPOLOGY_OUT_DEGREE} nodes for "
                         f"out-degree {RANDOM_TOPOLOGY_OUT_DEGREE}")
    targets = np.array([rng.choice(m, size=RANDOM_TOPOLOGY_OUT_DEGREE, replace=False)
                        for _ in inputs], dtype=np.int64).reshape(-1)
    # stable by node, so each node's inputs stay in input order
    ranks = np.argsort(targets, kind="stable") // RANDOM_TOPOLOGY_OUT_DEGREE
    count = np.bincount(targets, minlength=m)
    over = count > (ARITY_CAP_DEFAULT if cap is None else cap)
    if over.any():
        i = int(over.argmax())
        _check_cap(int(count[i]), cap, node_names[i])
    start = np.cumsum(count) - count
    pieces = []
    for k, bits in random_rows(count, rng, unate).items():
        rows = np.flatnonzero(count == k)
        pieces += _prune(rows, ranks[start[rows, None] + np.arange(k)], bits)
    return CollapsedNetwork(inputs, node_names, _blocks(pieces))


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
    arities = np.fromiter(map(len, net.args), np.int64, len(node_names))
    for name, k in zip(node_names, arities.tolist()):
        _check_cap(k, cap, name)
    unate = spec.mode.endswith("unate")
    _check_dist(d, net.inputs)
    if L is None:
        L = len(net.inputs)
    _check_L(L, len(net.inputs))
    seq = np.random.SeedSequence(spec.seed)
    curves = np.zeros((spec.trials, L + 1))
    resampled = 0
    done = 0
    while done < spec.trials:
        child = seq.spawn(1)[0]
        rng = np.random.default_rng(child)
        try:
            if spec.mode.startswith("exchange"):
                trial = LocalNetwork(net.program, random_rows(arities, rng, unate))
                collapsed = collapse_local(trial, cap)
            else:
                collapsed = _random_topology(net.inputs, node_names, rng, unate, cap)
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
