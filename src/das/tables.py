"""The one CSV formatter: the suites' tables, the sampler trace and the
online history are all written through :func:`csv_text`."""

from __future__ import annotations

from typing import Iterable


def csv_text(header: list[str], rows: Iterable) -> str:
    """The header line, then one line per row of values, each written with
    ``str``; every line ends in a newline."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"
