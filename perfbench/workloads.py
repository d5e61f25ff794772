"""The benchmark's three workloads, their correctness checks and micro rows.

Each workload is a closed loop with one caller: it runs one *pass* (a fixed
bundle of public-API calls), checks every output, and starts the next pass
only when the previous one has returned.  Each timed call in a pass is a
*component*; components are grouped into the two end-to-end rates,
``primary`` and ``secondary``:

=============  ==============================  ================================
workload       primary                         secondary
=============  ==============================  ================================
mc-single      completeness trials             cheat trials
mc-batched     decoded sequence transfers      spot-check detection runs
analysis       density-path evaluator calls    cold ``rotlab headline`` runs
=============  ==============================  ================================

Seeds: every component's master seed is ``derive_seed(seed, component,
pass)``, a full 64-bit mix, so two benchmark seeds never replay the same
Monte-Carlo trials even though ``rng.trial_seed`` only xors the master seed
with the trial index.

Host speed: the host's CPU speed drifts by up to 2x over tens of seconds
(shared virtual CPUs), far more than the changes the benchmark must
resolve.  Every timed call is therefore bracketed by a fixed probe of
interpreter and small-array work, and its duration is also reported scaled
to a host on which the probe takes ``PROBE_NOMINAL_S``.  Raw and scaled
seconds are both kept; the end-to-end metrics use the scaled ones.

Statistical outputs are checked against their analytic targets with a
fixed |z| gate on the counts pooled over the run, using the target's own
binomial sigma, so the checks survive any change of the draw contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from rotlab import adversary, cli, linalg, montecarlo, protocols

BEST = (2.0 + math.sqrt(2.0)) / 4.0
Z_GATE = 5.0
HEADLINE_INTERVAL = (1.0972, 1.2398)

_MASK64 = (1 << 64) - 1
# Pass indices outside the timed range, for warm-up and one-off checks.
WARMUP_PASS = 1 << 40
BLOCK_SPLIT_PASS = (1 << 40) + 1
MICRO_PASS = (1 << 40) + 2

clock = time.perf_counter


# The benchmark's own copy of splitmix64, so that a change to rotlab.rng
# never changes the benchmark's inputs.
def _splitmix64(value: int) -> int:
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Full 64-bit mix of the benchmark seed with a path of indices."""
    state = _splitmix64(seed & _MASK64)
    for index in indices:
        state = _splitmix64(state ^ _splitmix64(index & _MASK64))
    return state


# --------------------------------------------------------------------------
# Host-speed probe
# --------------------------------------------------------------------------

PROBE_ROUNDS = 150
PROBE_NOMINAL_S = 1e-3
_PROBE_VECTOR = (0.5, 0.5, math.sqrt(0.5))
_PROBE_MATRIX = np.eye(3, dtype=np.complex128)


@dataclass(frozen=True)
class _ProbeState:
    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if abs(float(np.linalg.norm(arr)) - 1.0) > 1e-12:
            raise ValueError("probe state is not normalised")
        object.__setattr__(self, "amplitudes", arr)


def host_probe() -> float:
    """Seconds for a fixed slice of the work rotlab's trials are made of:
    validated dataclass construction, 3x3 products, einsum and dict churn.
    Independent of rotlab, so a change to the library never moves it."""
    start = clock()
    table = {}
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        held = _PROBE_MATRIX @ _ProbeState(_PROBE_VECTOR).amplitudes
        acc += float(np.einsum("i,i->", held, held.conj()).real)
        table[i & 31] = (i, acc)
    return clock() - start


def timed(fn, *args, **kwargs):
    """Run one call between two host probes; returns (result, raw seconds,
    seconds scaled to the nominal host)."""
    before = host_probe()
    start = clock()
    result = fn(*args, **kwargs)
    raw = clock() - start
    probe = 0.5 * (before + host_probe())
    return result, raw, raw * PROBE_NOMINAL_S / probe


RAW, SCALED = 1, 2  # columns of a component's (units, raw s, scaled s)


def rate(passes, labels, column=SCALED) -> float:
    """Units per second over the given components: the per-pass medians of
    each component's units and seconds, summed over the components."""
    units = sum(statistics.median(p[label][0] for p in passes) for label in labels)
    seconds = sum(statistics.median(p[label][column] for p in passes) for label in labels)
    return units / seconds


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": 100 * (len(ordered) - 10) // len(ordered), "value": ordered[-11]}


class Checks:
    """Correctness checks attempted and the descriptions of those failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def binomial(self, label: str, trials: int, successes: int, target: float) -> float:
        """|z| gate of a pooled success count against its analytic rate."""
        sigma = math.sqrt(trials * target * (1.0 - target))
        z = (successes - trials * target) / sigma
        self.check(abs(z) < Z_GATE, f"{label}: {successes}/{trials} is z={z:.2f} from {target}")
        return z


class Workload:
    name = ""
    # Component labels behind each end-to-end rate, and the rate's name
    # where a user reads it.
    groups: dict[str, tuple[str, ...]] = {}
    rate_names: dict[str, str] = {}
    # True when every component counts Monte-Carlo trials (TrialReport.trials).
    monte_carlo = True

    def __init__(self, seed: int, checks: Checks):
        self.seed = seed
        self.checks = checks
        self.tracer = None  # set while a traced pass runs
        self._pooled: dict[str, list] = {}  # label -> [trials, successes, target]

    def pool(self, label: str, trials: int, successes: int, target: float) -> None:
        entry = self._pooled.setdefault(label, [0, 0, target])
        entry[0] += trials
        entry[1] += successes

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> dict[str, tuple[int, float, float]]:
        """One pass; returns {component: (units, raw seconds, scaled seconds)}."""
        raise NotImplementedError

    def finish(self) -> dict:
        """Pooled statistical checks; returns their z-scores by label."""
        return {
            label: self.checks.binomial(label, trials, successes, target)
            for label, (trials, successes, target) in self._pooled.items()
        }

    def report(self, passes) -> dict:
        """The rates under their user-facing names, scaled and raw."""
        out = {}
        for group, name in self.rate_names.items():
            out[name] = (rate(passes, self.groups[group]), "1/s")
            out["raw." + name] = (rate(passes, self.groups[group], RAW), "1/s")
        return out

    def manifest(self) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------------------
# mc-single: one trial per protocol run or strategy execution
# --------------------------------------------------------------------------

COMPLETENESS_PROTOCOLS = ("bad_classical", "bad_qubit", "qutrit")
CHEAT_TARGETS = (
    ("alice", "qutrit", BEST),
    ("bob", "qutrit", 0.75),
    ("alice", "sequence", BEST),
    ("alice", "coinflip", 0.5 + 0.5 * BEST),
    ("bob", "coinflip", 0.75),
)
SINGLE_TRIALS = 1000  # per component and pass; the completeness minimum
BLOCK_SPLIT = (40, 60)


class McSingle(Workload):
    name = "mc-single"
    groups = {
        "primary": tuple(f"completeness/{p}" for p in COMPLETENESS_PROTOCOLS),
        "secondary": tuple(f"cheat/{party}/{protocol}" for party, protocol, _ in CHEAT_TARGETS),
    }
    rate_names = {"primary": "completeness_trials_per_s", "secondary": "cheat_trials_per_s"}

    def setup(self) -> None:
        self.strategies = [
            (adversary.CheatStrategy(party, protocol), target) for party, protocol, target in CHEAT_TARGETS
        ]
        warm = derive_seed(self.seed, WARMUP_PASS)
        for strategy, _ in self.strategies:
            adversary.execute_cheat(strategy, warm)
        for protocol in COMPLETENESS_PROTOCOLS:
            getattr(protocols, "run_" + protocol)(warm)

    def run_pass(self, index):
        calls = {}
        for k, protocol in enumerate(COMPLETENESS_PROTOCOLS):
            label = f"completeness/{protocol}"
            (report, conditional), raw, scaled = timed(
                montecarlo.estimate_completeness, protocol, SINGLE_TRIALS, derive_seed(self.seed, k, index)
            )
            calls[label] = (report.trials, raw, scaled)
            self.checks.check(conditional, f"{label}: conditional correctness")
            self.pool(label, report.trials, report.successes, 0.5)
        for k, (strategy, target) in enumerate(self.strategies, start=len(COMPLETENESS_PROTOCOLS)):
            label = f"cheat/{strategy.party}/{strategy.protocol}"
            report, raw, scaled = timed(
                montecarlo.estimate_cheat, strategy, SINGLE_TRIALS, derive_seed(self.seed, k, index)
            )
            calls[label] = (report.trials, raw, scaled)
            self.pool(label, report.trials, report.successes, target)
        return calls

    def finish(self):
        # Two trial_offset blocks of one master seed must add up to exactly
        # the unsplit run, the property a vectorised engine has to keep.
        first, second = BLOCK_SPLIT
        for k, (strategy, _) in enumerate(self.strategies):
            master = derive_seed(self.seed, k, BLOCK_SPLIT_PASS)
            head = montecarlo.estimate_cheat(strategy, first, master)
            tail = montecarlo.estimate_cheat(strategy, second, master, trial_offset=first)
            whole = montecarlo.estimate_cheat(strategy, first + second, master)
            self.checks.check(
                head.successes + tail.successes == whole.successes,
                f"block split {strategy.party}/{strategy.protocol}: "
                f"{head.successes}+{tail.successes} != {whole.successes}",
            )
        return super().finish()

    def report(self, passes):
        every = self.groups["primary"] + self.groups["secondary"]
        return {
            "trials_per_s": (rate(passes, every), "1/s"),
            "raw.trials_per_s": (rate(passes, every, RAW), "1/s"),
            **super().report(passes),
        }

    def manifest(self):
        return {"trials_per_pass": {c: SINGLE_TRIALS for group in self.groups.values() for c in group}}


# --------------------------------------------------------------------------
# mc-batched: 100-slot sequence runs, many draws and measurements per run
# --------------------------------------------------------------------------

N_STATES = 100
# 12 runs of 90 decoded (untested) slots each, so no decoded transfer is
# thrown away at the end of the last run.
SEQUENCE_TRANSFERS = 1080
DETECTION_TRIALS = 50  # per variant and pass


class McBatched(Workload):
    name = "mc-batched"
    groups = {
        "primary": ("completeness/sequence",),
        "secondary": ("detection/send-orthogonal", "detection/honest"),
    }
    rate_names = {"primary": "transfers_per_s", "secondary": "detect_trials_per_s"}

    def setup(self) -> None:
        warm = derive_seed(self.seed, WARMUP_PASS)
        protocols.run_sequence(protocols.SequenceConfig(N_STATES), warm)
        for variant in ("send-orthogonal", "honest"):
            montecarlo.sequence_detection_experiment(N_STATES, variant, 1, warm)
        self.sequence_streams = 0  # party_stream calls inside traced sequence runs
        self.traced_transfers = 0

    def run_pass(self, index):
        streams_before = self.tracer.calls("rng.party_stream") if self.tracer else 0
        (report, conditional), raw, scaled = timed(
            montecarlo.estimate_completeness,
            "sequence", SEQUENCE_TRANSFERS, derive_seed(self.seed, 0, index), n_states=N_STATES,
        )
        if self.tracer:
            self.sequence_streams += self.tracer.calls("rng.party_stream") - streams_before
            self.traced_transfers += report.trials
        calls = {"completeness/sequence": (report.trials, raw, scaled)}
        self.checks.check(conditional, "completeness/sequence: conditional correctness")
        self.pool("completeness/sequence", report.trials, report.successes, 0.5)

        for k, variant in enumerate(("send-orthogonal", "honest"), start=1):
            label = f"detection/{variant}"
            report, raw, scaled = timed(
                montecarlo.sequence_detection_experiment,
                N_STATES, variant, DETECTION_TRIALS, derive_seed(self.seed, k, index),
            )
            calls[label] = (report.trials, raw, scaled)
            if variant == "honest":
                self.checks.check(report.successes == 0, f"{label}: {report.successes} aborts")
            else:
                self.pool(label, report.trials, report.successes, 0.1)
        return calls

    def manifest(self):
        return {
            "n_states": N_STATES,
            "trials_per_pass": {
                "completeness/sequence": SEQUENCE_TRANSFERS,
                "detection/send-orthogonal": DETECTION_TRIALS,
                "detection/honest": DETECTION_TRIALS,
            },
        }


# --------------------------------------------------------------------------
# analysis: the analytic headline path; no Monte-Carlo work
# --------------------------------------------------------------------------

SWEEP_TRIPLES = 400  # per pass


class Analysis(Workload):
    name = "analysis"
    groups = {"primary": ("density_sweep",), "secondary": ("headline",)}
    rate_names = {"primary": "sweep_evals_per_s", "secondary": "headlines_per_s"}
    monte_carlo = False

    def setup(self) -> None:
        # The lru-cached optimizer itself, kept so that its cache can be
        # cleared even while a traced wrapper sits in its module binding.
        self.optimizer = adversary.optimize_alice_qutrit
        adversary.bob_qutrit_cheat_prob()
        adversary.alice_qutrit_cheat_prob(adversary.AmplitudeTriple.balanced())

    def run_pass(self, index):
        gen = np.random.default_rng(derive_seed(self.seed, 1, index))
        vectors = np.abs(gen.normal(size=(SWEEP_TRIPLES, 3)))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        triples = [adversary.AmplitudeTriple(*map(float, v)) for v in vectors]
        values, raw, scaled = timed(lambda: [adversary.alice_qutrit_cheat_prob(t) for t in triples])
        calls = {"density_sweep": (SWEEP_TRIPLES, raw, scaled)}
        closed = 0.5 + 0.5 * (vectors[:, 0] + vectors[:, 1]) * vectors[:, 2]
        for gap in np.abs(np.asarray(values) - closed):
            self.checks.check(gap < 1e-10, f"density sweep: gap {gap:.3e} to the closed form")

        # Every CLI invocation starts with an empty optimizer cache.
        self.optimizer.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, raw, scaled = timed(cli.main, ["headline", "--output", "json"])
        calls["headline"] = (1, raw, scaled)
        self._check_headline(code, out.getvalue())
        return calls

    def _check_headline(self, code: int, text: str) -> None:
        try:
            interval = json.loads(text)["interval"]
        except (ValueError, KeyError, TypeError):
            interval = None
        ok = (
            code == 0
            and isinstance(interval, list)
            and len(interval) == 2
            and all(abs(v - ref) <= 1e-3 for v, ref in zip(interval, HEADLINE_INTERVAL))
        )
        self.checks.check(ok, f"headline: exit {code}, interval {interval}")

    def report(self, passes):
        samples = [p["headline"][SCALED] for p in passes]
        return {
            "headline_s": (statistics.median(samples), "s"),
            "headline_s.tail": (tail(samples), "s"),
            "headline_s.samples": (len(samples), "count"),
            "raw.headline_s": (statistics.median(p["headline"][RAW] for p in passes), "s"),
            **super().report(passes),
        }

    def manifest(self):
        return {"per_pass": {"headline": 1, "density_sweep": SWEEP_TRIPLES}}


WORKLOADS = {cls.name: cls for cls in (McSingle, McBatched, Analysis)}


def end_to_end(workload: Workload, passes, setup_samples, peak_rss_mb: float):
    """The gated metrics, and the metric lines printed for a user."""
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
        "primary_per_s": (rate(passes, workload.groups["primary"]), "1/s"),
        "secondary_per_s": (rate(passes, workload.groups["secondary"]), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        **metrics,
        "raw.setup_s": (statistics.median(raw for raw, _ in setup_samples), "s"),
        **workload.report(passes),
    }
    return metrics, report


# --------------------------------------------------------------------------
# Micro rows (traced runs only)
# --------------------------------------------------------------------------

EIGEN_REPEATS = {3: 41, 9: 11, 16: 5}
OPTIMIZER_REPEATS = 3


def micro_rows(seed: int, checks: Checks) -> dict[str, float]:
    """Median milliseconds of one eigensolve at dims 3, 9 and 16 and of one
    cold ``optimize_alice_qutrit(1e-9)``.  Only dims 3 (qutrit) and 4
    (sequence) lie on a workload's path; 9 and 16 bound the supported range.
    """
    rows = {}
    for dim, repeats in EIGEN_REPEATS.items():
        gen = np.random.default_rng(derive_seed(seed, dim, MICRO_PASS))
        square = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        hermitian = (square + square.conj().T) / 2.0
        matrix = linalg.ComplexMatrix(hermitian)
        samples = []
        for _ in range(repeats):
            start = clock()
            eigenvalues = linalg.hermitian_eigenvalues(matrix)
            samples.append(clock() - start)
        gap = float(np.max(np.abs(np.asarray(eigenvalues) - np.linalg.eigvalsh(hermitian))))
        checks.check(gap < 1e-9, f"eigenvalues at dim {dim}: gap {gap:.3e} to LAPACK")
        rows[f"linalg.hermitian_eigenvalues.dim{dim}_ms"] = 1e3 * float(np.median(samples))

    samples = []
    for _ in range(OPTIMIZER_REPEATS):
        adversary.optimize_alice_qutrit.cache_clear()
        start = clock()
        _, value = adversary.optimize_alice_qutrit(1e-9)
        samples.append(clock() - start)
        checks.check(abs(value - BEST) < 1e-8, f"optimizer: {value!r} is not (2+sqrt 2)/4")
    rows["adversary.optimize_alice_qutrit.cold_ms"] = 1e3 * float(np.median(samples))
    return rows
