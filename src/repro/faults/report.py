"""The one chaos report every ``lepton chaos`` drill prints.

A report is a title, a JSON document (``fields``) and one named boolean
verdict the exit code follows.  ``fields`` holds scalars and sections
(dicts whose values are scalars or flat dicts), in display order; the
drills build them with no paths, ports or clock readings, so the same
``(seed, plan)`` renders byte-identical text and JSON across runs.
"""

import json
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class ChaosReport:
    """One drill's outcome: ``fields`` plus the ``verdict`` it earned."""

    title: str
    fields: Dict[str, object]
    #: JSON key of the verdict; the process exits 0 iff ``ok``.
    verdict: str
    ok: bool

    def to_dict(self) -> dict:
        return {**self.fields, self.verdict: self.ok}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Title, ``key: value`` header lines, one padded block per
        section, and the verdict line last."""
        lines = [self.title, "=" * len(self.title)]
        sections = []
        for key, value in self.fields.items():
            if isinstance(value, dict):
                sections.append((key, value))
            else:
                lines.append(f"{key}: {value}")
        for name, section in sections:
            lines += ["", name, "-" * len(name)]
            width = max((len(key) for key in section), default=0) + 1
            lines += [f"  {key + ':':<{width}} {_text(value)}"
                      for key, value in section.items()] or ["  (none)"]
        lines += ["", f"{self.verdict}: {self.ok}"]
        return "\n".join(lines) + "\n"


def _text(value: object) -> str:
    if isinstance(value, dict):
        return ", ".join(f"{k}={v}" for k, v in value.items()) or "(none)"
    return str(value)
