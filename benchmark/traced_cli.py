"""Run the eventstudy CLI with spans recorded around each module's public functions.

Usage: ``python3 traced_cli.py SPANS.json CLI-ARG ...`` with ``src`` on
``PYTHONPATH``; the CLI arguments are those of ``python3 -m eventstudy.cli``.

Each wrapped function is replaced at the name its caller looks up (for
example ``eventstudy.inference.generate_distribution``), so the program's
own files stay untouched.  A span is ``[name, start, end, parent, info]``
with ``perf_counter`` times; spans stay in memory and are written once, when
the command has finished.  The exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

#: (module, attribute, span name).  The span name's prefix is its layer.
WRAPPED = (
    ("eventstudy.cli", "load_run_config", "config.load"),
    ("eventstudy.cli", "load_event_registry", "ingest.load"),
    ("eventstudy.cli", "load_price_series", "ingest.load"),
    ("eventstudy.cli", "event_scenario_distribution", "inference.distribution"),
    ("eventstudy.cli", "percentile_of", "bootstrap.percentile"),
    ("eventstudy.report", "run", "report.run"),
    ("eventstudy.report", "render_csv", "report.render"),
    ("eventstudy.report", "render_json", "report.render"),
    ("eventstudy.report", "emit_histogram", "report.emit_histogram"),
    ("eventstudy.report", "load_event_registry", "ingest.load"),
    ("eventstudy.report", "load_price_series", "ingest.load"),
    ("eventstudy.report", "run_event_study", "inference.event_study"),
    ("eventstudy.inference", "align", "ingest.align"),
    ("eventstudy.inference", "resolve_event_day", "ingest.resolve"),
    ("eventstudy.inference", "estimation_window", "model.window"),
    ("eventstudy.inference", "fit_market_model", "model.fit"),
    ("eventstudy.inference", "fit_additive_model", "model.fit"),
    ("eventstudy.inference", "generate_distribution", "bootstrap.generate"),
    ("eventstudy.inference", "percentile_of", "bootstrap.percentile"),
)


class Tracer:
    """Collects spans for one process; nesting comes from a call stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            span[4] = _info(name, args, kwargs, result)
            return result
        return traced


def _info(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts recorded where the work happens; read after the span has closed."""
    if name == "ingest.load":
        return {"path": str(Path(args[0]).resolve()), "rows": len(result)}
    if name == "bootstrap.generate":
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        return {"n": spec.n_scenarios, "k": spec.draws_k,
                "histogram": kwargs.get("histogram_bins") is not None}
    if name == "report.render":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "report.emit_histogram":
        return {"bytes": Path(result).stat().st_size}
    return {}


def main() -> int:
    spans_path, *cli_args = sys.argv[1:]
    started = time.perf_counter()
    import eventstudy.cli as cli
    imported = time.perf_counter()

    tracer = Tracer()
    for module_name, attribute, span_name in WRAPPED:
        module = sys.modules[module_name]
        setattr(module, attribute, tracer.wrap(getattr(module, attribute), span_name))
    main_span = tracer.wrap(cli.main, "cli.main")
    try:
        code = main_span(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps({
            "import_s": imported - started,
            "spans": tracer.spans,
        }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
