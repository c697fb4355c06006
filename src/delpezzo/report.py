"""Deterministic report emission.

Reports echo the invoked command, its parsed inputs, exact results and
catalog provenance.  Rationals always render as "p/q"; the --decimal
option adds a clearly non-authoritative float column.  Field order is
fixed at construction, so identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import Poly, PiecewisePoly, rat_str


def normalize(value, decimal: bool = False):
    """Render exact values into JSON-able data (insertion order preserved)."""
    if isinstance(value, Fraction):
        if decimal:
            return {"exact": rat_str(value), "approx": float(value),
                    "approx_note": "non-authoritative"}
        return rat_str(value)
    if isinstance(value, Poly):
        return value.format()
    if isinstance(value, PiecewisePoly):
        return value.to_report()
    if isinstance(value, bool) or value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, dict):
        return {str(k): normalize(v, decimal) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [normalize(v, decimal) for v in value]
    return str(value)


@dataclass
class Report:
    command: list[str]
    inputs: dict
    results: dict
    provenance: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    fmt: str = "table"  # "table" or "json", as --format
    decimal: bool = False  # as --decimal

    def payload(self) -> dict:
        return {
            "command": list(self.command),
            "inputs": normalize(self.inputs, self.decimal),
            "results": normalize(self.results, self.decimal),
            "provenance": list(self.provenance),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2) + "\n"

    def to_table(self) -> str:
        payload = self.payload()
        lines: list[str] = []
        lines.append("command: " + " ".join(payload["command"]))
        for section in ("inputs", "results"):
            data = payload[section]
            if not data:
                continue
            lines.append(section + ":")
            lines.extend(_flatten(data, "  "))
        if payload["provenance"]:
            lines.append("provenance: " + "; ".join(payload["provenance"]))
        for note in payload["notes"]:
            lines.append("note: " + note)
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        return self.to_json() if self.fmt == "json" else self.to_table()


def _is_uniform_table(rows) -> bool:
    return (isinstance(rows, list) and rows
            and all(isinstance(r, dict) for r in rows)
            and all(all(not isinstance(v, (dict, list)) for v in r.values())
                    for r in rows))


def _flatten(data, indent: str) -> list[str]:
    lines: list[str] = []
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, dict):
                lines.append(f"{indent}{k}:")
                lines.extend(_flatten(v, indent + "  "))
            elif _is_uniform_table(v):
                lines.append(f"{indent}{k}:")
                lines.extend(_format_rows(v, indent + "  "))
            elif isinstance(v, list):
                if all(not isinstance(x, (dict, list)) for x in v):
                    lines.append(f"{indent}{k} = [{', '.join(_scalar(x) for x in v)}]")
                    continue
                lines.append(f"{indent}{k}:")
                for item in v:
                    if isinstance(item, (dict, list)):
                        lines.append(f"{indent}  -")
                        lines.extend(_flatten(item, indent + "    "))
                    else:
                        lines.append(f"{indent}  - {_scalar(item)}")
            else:
                lines.append(f"{indent}{k} = {_scalar(v)}")
    elif isinstance(data, list):
        for item in data:
            lines.extend(_flatten(item, indent))
    else:
        lines.append(f"{indent}{_scalar(data)}")
    return lines


def _format_rows(rows: list[dict], indent: str) -> list[str]:
    keys: list[str] = []
    for r in rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    cells = [[_scalar(r.get(k, "")) for k in keys] for r in rows]
    widths = [max(len(k), *(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    lines = [indent + "  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
    for row in cells:
        lines.append(indent + "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    return str(v)
