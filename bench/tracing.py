"""Spans around the public calls of each uqscore layer, taken from outside.

The tracer replaces, for the length of one traced pass, the names that
callers look up (for instance ``uqscore.cli.decompose`` or
``uqscore.active.SecondOrderSample``) with wrappers that record a span and
then call the original.  The source is never edited, and the originals
are restored when the pass ends.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root
    run: str  # one command invocation
    payload: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _decompose_name(args, kwargs) -> str:
    rule = args[0] if args else kwargs["rule"]
    return f"measures.decompose.{rule.value}"


def _decompose_payload(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["sample"]


def _parse_payload(args, kwargs, result):
    return (str(args[0]), result)


def _keep_result(args, kwargs, result):
    return result


def _pool_size(args, kwargs, result):
    return len(result)


#: (module, attribute, span name or name function, payload function)
_TARGETS = [
    ("uqscore.cli", "parse_predictions", "records.parse", _parse_payload),
    ("uqscore.records", "SecondOrderSample", "measures.belief_build", None),
    ("uqscore.active", "SecondOrderSample", "measures.belief_build", None),
    ("uqscore.cli", "decompose", _decompose_name, _decompose_payload),
    ("uqscore.selective", "decompose", _decompose_name, _decompose_payload),
    ("uqscore.ood", "decompose", _decompose_name, _decompose_payload),
    ("uqscore.active", "decompose", _decompose_name, _decompose_payload),
    ("uqscore.cli", "run_selective_prediction", "selective.run", None),
    ("uqscore.selective", "order_by_uncertainty", "selective.order", None),
    ("uqscore.selective", "aulc", "selective.aulc", None),
    ("uqscore.cli", "run_ood", "ood.run", None),
    ("uqscore.ood", "auroc", "ood.auroc", None),
    ("uqscore.active", "run_active_learning", "active.run", None),
    ("uqscore.active", "fit", "active.fit", _keep_result),
    ("uqscore.active", "ensemble_zero_one_loss", "active.eval", None),
    ("uqscore.active", "predict_pool", "active.predict_pool", _pool_size),
    ("uqscore.active", "acquire", "active.acquire", None),
]


class Tracer:
    """Records spans while active; one instance serves every traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, payload):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name if isinstance(name, str) else name(args, kwargs), 0.0, 0.0,
                        stack[-1] if stack else -1, self.run)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if payload is not None:
                span.payload = payload(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, payload in _TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, payload))
        commands = importlib.import_module("uqscore.cli").COMMANDS
        for task, fn in list(commands.items()):
            self._saved.append((commands, task, fn))
            commands[task] = self._wrap(fn, f"cli.{task}", None)
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

