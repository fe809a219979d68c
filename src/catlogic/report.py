"""Structured, line-oriented key = value reports.

Stable ordering makes reports diffable certificates; the timing section is
rendered last and stripped before any byte-for-byte comparison.
"""

from __future__ import annotations

TIMING_PREFIX = "timing."


class Report:
    def __init__(self) -> None:
        self._lines: list[tuple[str, str]] = []
        self._timing: list[tuple[str, str]] = []

    def add(self, key: str, value: object) -> None:
        text = str(value)
        if "\n" in text:
            raise ValueError(f"report value for {key} must be a single line")
        self._lines.append((key, text))

    def add_block(self, prefix: str, text: str) -> None:
        """Embed a multi-line input under zero-padded numbered keys."""
        lines = text.splitlines()
        width = max(3, len(str(len(lines))))
        for i, line in enumerate(lines, 1):
            self.add(f"{prefix}.{i:0{width}d}", line)

    def add_timing(self, key: str, millis: float) -> None:
        self._timing.append((f"{TIMING_PREFIX}{key}", f"{millis:.1f}"))

    def render(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self._lines + self._timing)

    def get(self, key: str) -> str | None:
        for k, v in self._lines:
            if k == key:
                return v
        return None

    def keys(self) -> list[str]:
        return [k for k, _ in self._lines]


def strip_timing(text: str) -> str:
    """Drop the timing section for determinism comparisons."""
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith(TIMING_PREFIX))
