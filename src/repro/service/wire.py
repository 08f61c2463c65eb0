"""JSON wire forms for the sweep service's NDJSON metrics stream.

The service moves three kinds of payloads over its local HTTP API, all of
them JSON so any client can consume them:

* sweep plans — :meth:`repro.experiments.jobs.SweepPlan.to_wire`;
* finished results —
  :func:`~repro.experiments.results.result_to_wire` /
  :func:`~repro.experiments.results.result_from_wire`, the lossless JSON
  form the on-disk result store also writes (the Section 6 statistics
  survive the wire *bit-identically* — the property the fault-injection
  suite asserts against a serial run);
* telemetry — :func:`metrics_ndjson_line`, one canonical-JSON snapshot of
  the :class:`~repro.experiments.metrics.MetricsRegistry` per line, the
  stream a live dashboard tails.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.experiments.metrics import canonical_metrics_json


def metrics_ndjson_line(
    snapshot: Dict[str, object], seq: int, timestamp: Optional[float] = None
) -> str:
    """One NDJSON line of the live metrics stream (canonical JSON, no newline).

    ``seq`` orders the stream; ``timestamp`` is wall-clock seconds (omitted
    from the payload when ``None`` so that lines are deterministic in tests).
    """
    payload: Dict[str, object] = {"seq": int(seq), "metrics": snapshot}
    if timestamp is not None:
        payload["ts"] = float(timestamp)
    return canonical_metrics_json(payload)


def parse_metrics_ndjson(line: str) -> Dict[str, object]:
    """Parse one line produced by :func:`metrics_ndjson_line`."""
    return json.loads(line)
