"""Shared helpers for the experiment drivers (one per table/figure)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Table:
    """A small fixed-width text table (paper-style rendering)."""

    title: str
    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(str(cell)))
        lines = [self.title, ""]
        header = " | ".join(c.ljust(widths[i])
                            for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(
                str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def ratio(a: float, b: float) -> str:
    if b == 0:
        return "inf"
    return f"{a / b:.1f}x"
