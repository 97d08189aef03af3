"""Report objects shared by every CLI command.

A report is a plain JSON-compatible mapping: command metadata, sha256 hashes
of every input file, per-stage results with provenance tags, free-form notes
for recorded discrepancies, and wall-clock timings.  Two runs over the same
inputs produce byte-identical serialized reports apart from the ``timings``
block, and a report round-trips through its JSON form losslessly.
"""

from __future__ import annotations

import json
import time

from . import __version__


class Report:
    def __init__(self, command):
        self.data = {
            "command": command,
            "version": __version__,
            "inputs": {},
            "results": {},
            "provenance": {},
            "notes": [],
            "timings": {},
        }
        self._t0 = time.monotonic()

    def add_input_hash(self, name, content):
        # hashlib loads OpenSSL, which most calls (no input file) never use
        import hashlib
        if isinstance(content, str):
            content = content.encode()
        self.data["inputs"][name] = hashlib.sha256(content).hexdigest()

    def add_result(self, name, value, provenance=None):
        self.data["results"][name] = value
        if provenance:
            self.data["provenance"][name] = provenance

    def add_note(self, note):
        self.data["notes"].append(note)

    def finish(self):
        self.data["timings"]["wall_seconds"] = round(time.monotonic() - self._t0, 4)
        return self.data

    def to_json(self):
        return json.dumps(self.finish(), sort_keys=True, indent=1)

    def to_text(self):
        data = self.finish()
        lines = [f"command: {data['command']} (version {data['version']})"]
        for name, digest in sorted(data["inputs"].items()):
            lines.append(f"input {name}: sha256 {digest[:16]}...")
        for name, value in data["results"].items():
            tag = data["provenance"].get(name)
            suffix = f"   [{tag}]" if tag else ""
            lines.append(f"{name}:{suffix}")
            lines.extend("  " + line for line in _render(value))
        for note in data["notes"]:
            lines.append(f"note: {note}")
        lines.append(f"wall time: {data['timings']['wall_seconds']}s")
        return "\n".join(lines)


def _render(value):
    if isinstance(value, dict):
        out = []
        for k, v in value.items():
            sub = _render(v)
            if len(sub) == 1:
                out.append(f"{k}: {sub[0]}")
            else:
                out.append(f"{k}:")
                out.extend("  " + s for s in sub)
        return out
    if isinstance(value, list):
        if all(not isinstance(v, (list, dict)) for v in value):
            return [", ".join(str(v) for v in value)] if value else ["(empty)"]
        out = []
        for v in value:
            sub = _render(v)
            out.append("- " + sub[0])
            out.extend("  " + s for s in sub[1:])
        return out
    return [str(value)]


def scrub_timings(serialized):
    """Drop the timing block so byte-level determinism can be asserted."""
    data = json.loads(serialized)
    data.pop("timings", None)
    return json.dumps(data, sort_keys=True)
