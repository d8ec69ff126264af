"""cProfile → JSON artifact for ``repro perf --profile``.

The perf harness answers "how fast"; this answers "where the time
went".  The artifact is a machine-readable top-N by cumulative time
and a top-N by self time (``tottime``), so CI can archive it next to
``BENCH_perf.json`` and a regression hunt starts from the uploaded
profile instead of a local re-run.  The self-time list is there for
leaf hotspots, which rank far down the cumulative list under every
wrapper frame.  The
profiled pass is separate from (and after) the gated measurement run —
cProfile's per-call overhead is far from uniform, so wrapping the
measured run would skew both the wall clocks and the machine-score
calibration against an unprofiled baseline.
"""

from __future__ import annotations

import json
import pstats
from typing import List

__all__ = ["profile_to_dict", "write_profile"]


def profile_to_dict(profiler, top: int = 40) -> dict:
    """Summarise a (stopped) ``cProfile.Profile`` as a JSON-ready dict.

    ``top`` keeps the ``top`` functions by cumulative time, each with
    its call counts and per-function totals — the same columns
    ``pstats.sort_stats("cumulative")`` prints, minus the callers.
    ``top_self`` keeps the same rows for the ``top`` functions by self
    time (``pstats.sort_stats("tottime")``).
    """
    stats = pstats.Stats(profiler)
    total_calls = stats.total_calls  # type: ignore[attr-defined]
    total_tt = stats.total_tt  # type: ignore[attr-defined]
    rows: List[dict] = []
    for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, lineno, name = func
        rows.append(
            {
                "function": name,
                "file": filename,
                "line": lineno,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": tt,
                "cumtime": ct,
            }
        )
    by_self = sorted(rows, key=lambda r: r["tottime"], reverse=True)
    rows.sort(key=lambda r: r["cumtime"], reverse=True)
    return {
        "schema": 1,
        "sort": "cumulative",
        "total_calls": total_calls,
        "total_tottime": total_tt,
        "top": rows[:top],
        "top_self": by_self[:top],
    }


def write_profile(profile: dict, path: str) -> None:
    """Write the profile summary as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile, fh, indent=2)
        fh.write("\n")
