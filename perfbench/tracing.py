"""In-memory call tracing around rotlab's public functions.

A :class:`Tracer` wraps each public name in :data:`TARGETS` wherever a
rotlab module binds it: the defining module, every module that imported it
with ``from .x import y``, the package namespace, and the public dispatch
tables (such as ``protocols.ROT_EXECUTORS``) that hold it as a value.  For
the two state classes it wraps the constructor, so every construction is
counted whichever binding made it.

Open spans live on a stack.  When a span closes, its duration minus the time
its child spans covered is added to the function's self time, and its full
duration is charged to the enclosing span, so nothing is double counted.
Closed spans are folded into per-function totals instead of being kept one
by one, which keeps memory flat over millions of calls.

Targets that no longer exist (items a refactor may delete) are listed in
``absent`` and report zero calls; private names are never hooked.
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = (
    ("rng", "party_stream"),
    ("rng", "draw_bit"),
    ("linalg", "measure"),
    ("linalg", "PureState"),
    ("linalg", "DensityMatrix"),
    ("linalg", "hermitian_eigenvalues"),
    ("linalg", "trace_norm"),
    ("linalg", "helstrom_prob"),
    ("linalg", "helstrom_projectors"),
    ("protocols", "run_bad_classical"),
    ("protocols", "run_bad_qubit"),
    ("protocols", "run_qutrit"),
    ("protocols", "run_sequence"),
    ("adversary", "optimize_alice_qutrit"),
    ("adversary", "alice_qutrit_cheat_prob"),
    ("adversary", "execute_cheat"),
    ("montecarlo", "estimate_completeness"),
    ("montecarlo", "estimate_cheat"),
    ("montecarlo", "sequence_detection_experiment"),
    ("security", "reproduce_headline_table"),
    ("cli", "main"),
)

# Protocol runs return (transcript, outcome); their message counts are tallied.
_TRANSCRIPT_TARGETS = {"run_bad_classical", "run_bad_qubit", "run_qutrit", "run_sequence"}


class Tracer:
    """Call counts and self times of the targets while installed."""

    def __init__(self, package_name: str = "rotlab"):
        self.stats: dict[str, list] = {}  # label -> [calls, self seconds]
        self.absent: list[str] = []
        self.protocol_runs = 0
        self.transcript_messages = 0
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []  # (setter, original, wrapper)

        prefix = package_name + "."
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package_name or name.startswith(prefix))
        ]
        for module_name, attr in TARGETS:
            label = f"{module_name}.{attr}"
            stat = self.stats[label] = [0, 0.0]
            home = sys.modules.get(prefix + module_name)
            original = getattr(home, attr, None)
            if original is None:
                self.absent.append(label)
                continue
            if isinstance(original, type):
                init = original.__init__
                setter = functools.partial(setattr, original, "__init__")
                self._patches.append((setter, init, self._wrap(stat, init)))
                continue
            after = self._count_transcript if attr in _TRANSCRIPT_TARGETS else None
            wrapper = self._wrap(stat, original, after)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._patches.append((functools.partial(setattr, module, key), original, wrapper))
                    elif isinstance(value, dict) and not key.startswith("_"):
                        for entry, item in value.items():
                            if item is original:
                                self._patches.append((functools.partial(value.__setitem__, entry), original, wrapper))

    def _wrap(self, stat: list, fn, after=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # seconds covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(traced, fn)

    def _count_transcript(self, result) -> None:
        transcript = result[0] if isinstance(result, tuple) and result else None
        messages = getattr(transcript, "messages", None)
        if messages is not None:
            self.protocol_runs += 1
            self.transcript_messages += len(messages)

    def install(self) -> None:
        for setter, _, wrapper in self._patches:
            setter(wrapper)

    def uninstall(self) -> None:
        for setter, original, _ in self._patches:
            setter(original)

    def calls(self, label: str) -> int:
        return self.stats[label][0]
