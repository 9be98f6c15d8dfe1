"""Report objects shared by the CLI suites: deterministic, serializable."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

VERSION = "0.1.0"
SCHEMA_VERSION = 5


@dataclass
class Item:
    id: str
    computed: object
    expected: object
    paper_ref: str
    passed: bool
    note: str = ""

    def to_dict(self):
        return {
            "id": self.id,
            "computed": self.computed,
            "expected": self.expected,
            "paper_ref": self.paper_ref,
            "pass": self.passed,
            **({"note": self.note} if self.note else {}),
        }


@dataclass
class Report:
    suite: str
    seed: int = None        # None for a suite that draws nothing at random
    items: list = field(default_factory=list)

    def add(self, id, computed, expected, paper_ref, passed, note=""):
        self.items.append(Item(str(id), computed, expected, paper_ref, bool(passed), note))

    @property
    def ok(self):
        return all(item.passed for item in self.items)

    @property
    def exit_code(self):
        return 0 if self.ok else 1

    def to_dict(self):
        return {
            "suite": self.suite,
            "version": VERSION,
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
            "items": [item.to_dict() for item in self.items],
        }

    def render(self, fmt="text"):
        if fmt == "json":
            return json.dumps(self.to_dict(), indent=1, default=str)
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["id", "computed", "expected", "paper_ref", "pass", "note"])
            for item in self.items:
                writer.writerow(
                    [item.id, item.computed, item.expected, item.paper_ref,
                     "pass" if item.passed else "FAIL", item.note]
                )
            return buf.getvalue().rstrip("\n")
        seed = "" if self.seed is None else f"seed {self.seed}, "
        lines = [f"suite: {self.suite} ({seed}version {VERSION})"]
        for item in self.items:
            status = "pass" if item.passed else "FAIL"
            line = f"[{status}] {item.id}: computed={item.computed} expected={item.expected} ({item.paper_ref})"
            if item.note:
                line += f" -- {item.note}"
            lines.append(line)
        npass = sum(1 for i in self.items if i.passed)
        lines.append(f"{npass}/{len(self.items)} checks passed")
        return "\n".join(lines)
