"""Machine-readable verification reports.

Reports serialize deterministically: records are sorted by check id and
wall times are zeroed unless timing output is requested, so byte-identical
reruns are byte-identical reports.  The text format is a lossy rendering
of the same data.
"""

from __future__ import annotations

import json

ARTIFACT_VERSION = "0.1.0"


class Report:
    def __init__(self, kind, subject, records, meta=None):
        self.kind = kind
        self.subject = subject
        self.records = sorted(records, key=lambda r: (r.get("subject", ""),
                                                      r["id"]))
        self.meta = meta or {}

    @property
    def verdict(self):
        return "pass" if all(r["ok"] for r in self.records) else "fail"

    def to_dict(self, timings=False):
        records = []
        for r in self.records:
            rr = dict(r)
            if not timings:
                rr["wall_ms"] = 0
            records.append(rr)
        return {
            "artifact_version": ARTIFACT_VERSION,
            "kind": self.kind,
            "subject": self.subject,
            "records": records,
            "verdict": self.verdict,
            "meta": self.meta,
        }

    def to_json(self, timings=False):
        return json.dumps(self.to_dict(timings=timings), sort_keys=True,
                          indent=1) + "\n"

    @classmethod
    def from_dict(cls, data):
        rep = cls(data["kind"], data["subject"], data["records"],
                  data.get("meta"))
        if rep.verdict != data.get("verdict"):
            raise ValueError("verdict does not match records")
        return rep

    def to_text(self, timings=False):
        lines = [f"{self.kind} report for {self.subject}: {self.verdict}"]
        for k, v in sorted(self.meta.items()):
            lines.append(f"  {k}: {v}")
        for r in self.records:
            mark = "ok " if r["ok"] else "FAIL"
            subj = f"[{r['subject']}] " if r.get("subject") else ""
            t = f" ({r['wall_ms']} ms)" if timings else ""
            lines.append(f"  {mark} {subj}{r['id']}: {r['anchor']}{t}")
            if not r["ok"]:
                lines.append(f"       witness: {r['witness']!r}")
        return "\n".join(lines) + "\n"

