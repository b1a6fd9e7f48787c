"""Call timing and in-memory spans around the benchmark's calls into the package.

Spans are recorded only from the benchmark's side of each public call; the
package itself is not instrumented.  A span has a name, a start, an end, the
pass it belongs to and its own id.  Call spans never nest (each one's
parent is its pass), so a layer's self time is the summed duration of its
call spans; spans inside the package would need real self times.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, asdict
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


class Recorder:
    """Times every call into the package; keeps spans only when tracing."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tracing = False
        self.busy = 0.0
        self.pass_span: int | None = None
        self._origin = time.perf_counter()

    def begin_pass(self, tracing: bool) -> None:
        self.tracing = tracing
        self.busy = 0.0
        self.pass_span = None
        if tracing:
            self.pass_span = len(self.spans) + 1
            self.spans.append(Span(self.pass_span, None, "pass",
                                   time.perf_counter() - self._origin, 0.0))

    def end_pass(self) -> None:
        if self.pass_span is not None:
            self.spans[self.pass_span - 1].end = time.perf_counter() - self._origin
        self.pass_span = None

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one call of the named layer."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.busy += end - start
        if self.tracing:
            self.spans.append(
                Span(len(self.spans) + 1, self.pass_span, layer,
                     start - self._origin, end - self._origin)
            )
        return out


def layer_seconds(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per pass span id: summed self time of each layer inside that pass."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.parent is not None:
            out[s.parent][s.name] += s.end - s.start
    return out


def write(path: Path, workload: str, seed: int, spans: list[Span]) -> None:
    """Write spans and per-layer self times once the run has ended."""
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            totals[s.name] += s.end - s.start
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload,
        "seed": seed,
        "self_s": dict(sorted(totals.items())),
        "spans": [asdict(s) for s in spans],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
