"""The benchmark's three workloads: inputs from a seed, timed operations,
and the checks that decide whether each output is correct.

A workload is run in rounds.  A round is a fixed list of operations, so a
run's per-layer counts can be given per round.  Each ``Op`` has an untimed
``prepare`` that builds its inputs, a timed ``call``, and an untimed
``check`` that raises ``CheckError`` when the output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import netgen

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
TOL = 1e-9
# Round numbers from here on seed the trace-overhead probe, never a timed round.
PROBE_ROUND = 1 << 30


class CheckError(Exception):
    """An output failed its correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, tol: float = TOL) -> bool:
    """Agreement to ``tol``, relative for magnitudes above 1 (reports keep
    12 significant digits)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass
class Op:
    kind: str
    call: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    prepare: Callable[[], Any] = lambda: None
    per: int = 1
    # False for kinds whose arrays outgrow L2: see calibration.py.
    calibrated: bool = True


class Workload:
    """Inputs from ``seed``; ``round(r)`` lists the ops of round ``r``."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate inputs and fill first-use caches; raise if inputs are wrong."""

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def probe(self) -> list[Op]:
        """A few ops timed with and without tracing to measure its cost."""
        raise NotImplementedError

    def one_off_checks(self) -> list[tuple[str, Callable[[], None]]]:
        return []

    def stats(self) -> dict:
        return {}

    def resample_frac(self) -> float:
        return 0.0


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _int_seed(*key: int) -> int:
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def _expected() -> dict:
    return json.loads(EXPECTED.read_text())


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# ---------------------------------------------------------------------------
# ecoli-synth

BASELINE_TRIALS = 1


def run_analyze(netfile: Path, outdir: Path) -> dict:
    """``bnspectral analyze`` through ``cli.main``; returns the report."""
    from bnspectral.cli import main

    rc = _quiet(main, ["analyze", str(netfile), "--out", str(outdir)])
    require(rc == 0, f"analyze exited {rc}")
    return json.loads((outdir / "report.json").read_text())


def check_curve(values, what: str) -> None:
    require(all(b <= a + TOL for a, b in zip(values, values[1:])),
            f"{what}: A(l) increases")
    require(abs(values[-1]) <= TOL, f"{what}: A(L) = {values[-1]} is not 0")


def check_report(report: dict, c, d) -> None:
    """Analyze output against brute-force oracles from ``reference`` and
    the definitional measures, none of which use the spectral path."""
    from bnspectral.measures import avg_sensitivity
    from bnspectral.reference import cond_entropy_definitional, mutual_information_definitional

    rank = {name: i for i, name in enumerate(c.inputs)}
    subs = [d.marginal([rank[x] for x in node.inputs]) for node in c.nodes]
    oracle_d = {name: 0.0 for name in c.inputs}
    for node, sub in zip(c.nodes, subs):
        for t, name in enumerate(node.inputs):
            oracle_d[name] += mutual_information_definitional(node.fn, sub, 1 << t)
    for name, value in oracle_d.items():
        require(close(report["d_values"][name], value), f"D({name}) differs from oracle")
    tau = report["tau"]
    require(sorted(tau) == sorted(c.inputs), "tau is not a permutation of the inputs")
    dv = [report["d_values"][name] for name in tau]
    require(all(b <= a + TOL for a, b in zip(dv, dv[1:])), "tau is not ordered by D(j)")

    curve = [v for _, v in report["curve"]]
    check_curve(curve, "analyze")
    known = [0] * len(c.nodes)
    h = [cond_entropy_definitional(node.fn, sub, 0) for node, sub in zip(c.nodes, subs)]
    require(close(curve[0], sum(h)), "A(0) differs from oracle")
    for l, name in enumerate(tau, start=1):
        for i, node in enumerate(c.nodes):
            if name in node.inputs:
                known[i] |= 1 << node.inputs.index(name)
                h[i] = cond_entropy_definitional(node.fn, subs[i], known[i])
        require(close(curve[l], sum(h)), f"A({l}) differs from oracle")

    for rec, node, sub in zip(report["scatter"], c.nodes, subs):
        p = rec["prob_one"]
        require(rec["avg_sensitivity"] >= 4 * p * (1 - p) - TOL,
                f"{rec['name']}: avg sensitivity below 4p(1-p)")
        require(close(rec["avg_sensitivity"], avg_sensitivity(node.fn, sub)),
                f"{rec['name']}: avg sensitivity differs from definitional")


def golden_small(workdir: Path) -> dict:
    """Outputs on the small recorded network: report fields and baselines."""
    from bnspectral.analysis import BASELINE_MODES, BaselineSpec, baseline_curves
    from bnspectral.boolfn import ProductDist
    from bnspectral.netlang import parse

    text = netgen.generate(0, netgen.SMALL)
    netfile = workdir / "small.bnet"
    netfile.write_text(text)
    report = run_analyze(netfile, workdir / "small-out")
    net = parse(text)
    d = ProductDist.uniform(len(net.inputs))
    baselines = {mode: list(baseline_curves(net, BaselineSpec(mode, 2, 0), d).mean.values)
                 for mode in BASELINE_MODES}
    return {
        "d_values": report["d_values"],
        "tau": report["tau"],
        "curve": report["curve"],
        "scatter": report["scatter"],
        "baseline_means": baselines,
    }


def compare(got, want, path: str = "") -> None:
    """Structural equality with floats to TOL."""
    if isinstance(want, dict):
        require(isinstance(got, dict) and got.keys() == want.keys(), f"{path}: keys differ")
        for key in want:
            compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        require(isinstance(got, list) and len(got) == len(want), f"{path}: lengths differ")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        require(isinstance(got, (int, float)) and close(got, want), f"{path}: {got} != {want}")
    else:
        require(got == want, f"{path}: {got!r} != {want!r}")


class EcoliSynth(Workload):
    """Full analyze runs plus one baseline trial per mode on the synthetic
    653-node network: thousands of tiny per-node spectral calls."""

    name = "ecoli-synth"
    modes = ("exchange-random", "exchange-unate", "random-topology-random",
             "random-topology-unate")
    kinds = ("analyze",) + tuple(f"trial.{m}" for m in modes)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.first_report: str | None = None
        self.resampled = 0
        self.trials_attempted = 0

    def setup(self) -> None:
        from bnspectral.boolfn import ProductDist
        from bnspectral.netlang import collapse, parse
        from bnspectral.sampling import enumerate_unate_tables

        self.text = netgen.generate(self.seed)
        self.netfile = self.workdir / "ecoli-synth.bnet"
        self.netfile.write_text(self.text)
        self.net = parse(self.text)
        self.collapsed = collapse(self.net)
        self.shape = netgen.shape_stats(self.net, self.collapsed)
        errors = netgen.shape_errors(self.shape)
        if errors:
            raise CheckError("generated network misses its shape: " + "; ".join(errors))
        self.d = ProductDist.uniform(len(self.net.inputs))
        self.L = len(self.net.inputs)
        enumerate_unate_tables(4)

    def _analyze_check(self, _, report: dict) -> None:
        text = json.dumps(report, sort_keys=True)
        if self.first_report is None:
            check_report(report, self.collapsed, self.d)
            self.first_report = text
        require(text == self.first_report, "analyze report differs between runs")

    def _analyze(self) -> Op:
        return Op("analyze", lambda _: run_analyze(self.netfile, self.workdir / "out"),
                  self._analyze_check)

    def _trial(self, mode: str, seed: int) -> Op:
        from bnspectral.analysis import BaselineSpec, baseline_curves

        def call(_):
            return baseline_curves(self.net, BaselineSpec(mode, BASELINE_TRIALS, seed),
                                   self.d, self.L)

        def check(_, res) -> None:
            self.resampled += res.resampled
            self.trials_attempted += res.trials + res.resampled
            values = list(res.mean.values)
            require(len(values) == self.L + 1, f"{mode}: curve length {len(values)}")
            require(values[0] > 0.0, f"{mode}: A(0) is not positive")
            check_curve(values, mode)

        return Op(f"trial.{mode}", call, check, per=BASELINE_TRIALS)

    def round(self, r: int) -> list[Op]:
        return [self._analyze()] + [self._trial(m, _int_seed(self.seed, r, k))
                                    for k, m in enumerate(self.modes)]

    def probe(self) -> list[Op]:
        return [self._analyze()]

    def one_off_checks(self) -> list[tuple[str, Callable[[], None]]]:
        def golden():
            compare(golden_small(self.workdir), _expected()["ecoli_small"], "ecoli_small")
        return [("ecoli_small golden", golden)]

    def stats(self) -> dict:
        return {"shape": self.shape,
                "network_sha256": hashlib.sha256(self.text.encode()).hexdigest()}

    def resample_frac(self) -> float:
        return self.resampled / self.trials_attempted if self.trials_attempted else 0.0


# ---------------------------------------------------------------------------
# wide-fn

def random_instance(rng: np.random.Generator, n: int):
    from bnspectral.boolfn import BoolFn, ProductDist, default_labels

    table = int.from_bytes(rng.bytes(max(1, (1 << n) // 8)), "little") & ((1 << (1 << n)) - 1)
    f = BoolFn(n, default_labels(n), table)
    d = ProductDist(tuple(float(p) for p in rng.uniform(0.05, 0.95, size=n)))
    return f, d


def noise_sensitivity_oracle(f, d, eps: float) -> float:
    """(1 - E[f(X) (T f)(X)]) / 2 with T the eps-flip operator, applied one
    variable at a time; an algorithm independent of the library's O(4^n)
    exact loop."""
    n = f.arity
    tf = np.array(f.signs, dtype=np.float64)
    idx = np.arange(1 << n)
    w = np.ones(1 << n)
    for i in range(n):
        view = tf.reshape(-1, 2, 1 << i)
        a, b = view[:, 0, :].copy(), view[:, 1, :].copy()
        view[:, 0, :] = (1 - eps) * a + eps * b
        view[:, 1, :] = eps * a + (1 - eps) * b
        w *= np.where((idx >> i) & 1, d.probs[i], 1 - d.probs[i])
    return float((1.0 - np.dot(w, f.signs * tf)) / 2.0)


def fn_pipeline(inputs):
    """transform, reconstruct_table, then H(f | all variables but one)."""
    from bnspectral.boolfn import reconstruct_table, transform
    from bnspectral.measures import cond_entropy_spectral

    f, d, i = inputs
    s = transform(f, d)
    table = reconstruct_table(s, d)
    h = cond_entropy_spectral(s, d, ((1 << f.arity) - 1) & ~(1 << i))
    return s, table, h


def check_fn_pipeline(inputs, out) -> None:
    from bnspectral.measures import binary_entropy, influence

    f, d, i = inputs
    s, table, h = out
    residual = abs(float(np.dot(s.coeffs, s.coeffs)) - 1.0)
    require(residual <= TOL, f"n={f.arity}: Parseval residual {residual:.3e}")
    gap = float(np.max(np.abs(table - f.signs)))
    require(gap <= TOL, f"n={f.arity}: reconstruct_table off by {gap:.3e}")
    del table
    # H(f | X_rest) = Inf_i(f) H(X_i), from the truth table alone.
    want = influence(f, d, i) * binary_entropy(d.probs[i])
    require(close(h, want), f"n={f.arity}: H(f|X_rest) {h} != Inf*H {want}")


NOISE_N = 12


def noise_instance(rng: np.random.Generator):
    f, d = random_instance(rng, NOISE_N)
    return f, d, float(rng.uniform(0.01, 0.5))


def noise_exact(inputs) -> float:
    from bnspectral.measures import noise_sensitivity

    f, d, eps = inputs
    return noise_sensitivity(f, d, eps, mode="exact")


def check_noise(inputs, value: float) -> None:
    f, d, eps = inputs
    want = noise_sensitivity_oracle(f, d, eps)
    require(close(value, want), f"noise sensitivity {value} != oracle {want}")


def golden_wide() -> dict:
    f, d, eps = noise_instance(_rng(0, NOISE_N))
    _, _, h = fn_pipeline(random_instance(_rng(0, 16), 16) + (3,))
    return {"noise_exact_n12": noise_exact((f, d, eps)), "cond_entropy_n16": h}


class WideFn(Workload):
    """Single random functions under random product distributions, where
    the butterfly kernel does almost all the work."""

    name = "wide-fn"
    kinds = ("fn.n16", "fn.n20", "fn.n24", "noise_exact.n12")

    def _fn(self, n: int, key: tuple[int, ...]) -> Op:
        def prepare():
            rng = _rng(*key)
            f, d = random_instance(rng, n)
            return f, d, int(rng.integers(n))
        # 2^16 float64 values are 512 KB, within L2; larger n is not calibrated.
        return Op(f"fn.n{n}", fn_pipeline, check_fn_pipeline, prepare, calibrated=n <= 16)

    def _noise(self, key: tuple[int, ...]) -> Op:
        return Op("noise_exact.n12", noise_exact, check_noise, lambda: noise_instance(_rng(*key)))

    def round(self, r: int) -> list[Op]:
        """48 n = 16 ops, 12 at n = 20 and 24 noise ops, interleaved around
        the one n = 24 op (about 13 s on a 2-core Xeon), so that a passing
        slowdown of a shared machine hits few samples of any one kind."""
        ops: list[Op] = []
        for j in range(48):
            if j == 24:
                ops.append(self._fn(24, (self.seed, r, len(ops))))
            ops.append(self._fn(16, (self.seed, r, len(ops))))
            if j % 4 == 1:
                ops.append(self._fn(20, (self.seed, r, len(ops))))
            if j % 2 == 0:
                ops.append(self._noise((self.seed, r, len(ops))))
        return ops

    def probe(self) -> list[Op]:
        return [self._fn(20, (self.seed, PROBE_ROUND))]

    def one_off_checks(self) -> list[tuple[str, Callable[[], None]]]:
        from bnspectral.boolfn import transform
        from bnspectral.reference import transform_naive

        def naive():
            f, d = random_instance(_rng(self.seed, 6), 6)
            gap = float(np.max(np.abs(transform(f, d).coeffs - transform_naive(f, d).coeffs)))
            require(gap <= TOL, f"transform differs from transform_naive by {gap:.3e}")

        def golden():
            compare(golden_wide(), _expected()["wide_fn"], "wide_fn")

        return [("transform vs transform_naive n=6", naive), ("wide_fn golden", golden)]

    def stats(self) -> dict:
        return {"ops_per_round": dict(Counter(op.kind for op in self.round(0)))}


# ---------------------------------------------------------------------------
# identities

SELFTEST_BATCH = 20


class Identities(Workload):
    """The randomized identity suite on fresh instances: many distinct tiny
    functions, each transformed many times, beside the brute-force oracle."""

    name = "identities"
    kinds = ("selftest_inst",)

    def _batch(self, r: int) -> Op:
        from bnspectral.selftest import run_selftest

        def check(_, reports) -> None:
            failing = [rep.name for rep in reports if not rep.passed]
            require(not failing, f"identities failed: {failing}")
            require(all(rep.instances == SELFTEST_BATCH for rep in reports), "instance count")

        return Op("selftest_inst",
                  lambda _: run_selftest(trials=SELFTEST_BATCH, max_n=8,
                                         seed=_int_seed(self.seed, r)),
                  check, per=SELFTEST_BATCH)

    def round(self, r: int) -> list[Op]:
        return [self._batch(r)]

    def probe(self) -> list[Op]:
        return [self._batch(PROBE_ROUND + k) for k in range(5)]

    def stats(self) -> dict:
        return {"instances_per_op": SELFTEST_BATCH, "max_n": 8}


WORKLOADS = {cls.name: cls for cls in (EcoliSynth, WideFn, Identities)}


def geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))
