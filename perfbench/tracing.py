"""Calls into cpumap's public API, each optionally wrapped in a span.

The workloads reach the program only through an :class:`Api`: the names in
``cpumap.__all__``, ``cpumap.cli.main(argv)`` and
``cpumap.selftest.run_selftest(seed=...)``.  When the Api holds a span list,
every call appends ``(name, start, end)`` to it, where ``name`` is
``<module>.<function>`` (``cli.<subcommand>`` for the command line).  Spans
stay in memory; :func:`summarize` turns them into per-layer figures.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import defaultdict


class Api:
    """Public cpumap names; calls are timed when ``spans`` is a list."""

    def __init__(self, cpumap, cli, selftest, spans=None):
        self._cpumap = cpumap
        self._cli = cli
        self._selftest = selftest
        self._module = {
            name: getattr(cpumap, name).__module__.rsplit(".", 1)[-1]
            for name in cpumap.__all__
        }
        self.spans = spans

    def __getattr__(self, name):
        if name.startswith("_") or name not in self._module:
            raise AttributeError(name)
        # looked up on every call, so a test can substitute a function
        fn = getattr(self._cpumap, name)
        span = f"{self._module[name]}.{name}"
        return lambda *args, **kwargs: self._call(span, fn, args, kwargs)

    def cli(self, argv: list[str]) -> tuple[int, str, str]:
        """``cpumap.cli.main(argv)`` with stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._call(f"cli.{argv[0]}", self._cli.main, (argv,), {})
        return code, out.getvalue(), err.getvalue()

    def run_selftest(self, seed: int) -> tuple[str, bool]:
        return self._call(
            "selftest.run_selftest", self._selftest.run_selftest, (), {"seed": seed}
        )

    def _call(self, span, fn, args, kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((span, start, time.perf_counter()))


def summarize(spans) -> dict[str, tuple[float, int]]:
    """Busy seconds and call count per span name and per module."""
    table: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for name, start, end in spans:
        module = name.split(".", 1)[0]
        for key in (name, module):
            table[key][0] += end - start
            table[key][1] += 1
    return {key: (busy, calls) for key, (busy, calls) in table.items()}
