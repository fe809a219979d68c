"""Structured, line-oriented key = value reports.

Stable ordering makes reports diffable certificates; the timing section is
rendered last and stripped before any byte-for-byte comparison.  A line is
rendered when it is added, so ``render`` only joins the lines.
"""

from __future__ import annotations

from .logic import _BREAK_RE

TIMING_PREFIX = "timing."


class Report:
    def __init__(self) -> None:
        self._lines: list[str] = []
        self._timing: list[str] = []

    def add(self, key: str, value: object) -> None:
        text = str(value)
        if _BREAK_RE.search(text):
            raise ValueError(f"report value for {key} must be a single line")
        self._lines.append(f"{key} = {text}\n")

    def add_rendered(self, text: str) -> None:
        """Append whole ``key = value\\n`` lines whose values hold no newline."""
        self._lines.append(text)

    def add_block(self, prefix: str, text: str) -> None:
        """Embed a multi-line input under zero-padded numbered keys."""
        lines = text.splitlines()  # so no line holds a newline
        width = max(3, len(str(len(lines))))
        template = f"{prefix}.%0{width}d = %s\n"
        self._lines.append("".join([template % p for p in enumerate(lines, 1)]))

    def add_timing(self, key: str, millis: float) -> None:
        self._timing.append(f"{TIMING_PREFIX}{key} = {millis:.1f}\n")

    def render(self) -> str:
        return "".join(self._lines + self._timing)


def strip_timing(text: str) -> str:
    """Drop the timing section for determinism comparisons."""
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith(TIMING_PREFIX))
