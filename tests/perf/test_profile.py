"""The ``repro perf --profile`` artifact: top-N by cumulative and by self time."""

import cProfile
import json

from repro.perf.profile import profile_to_dict, write_profile


def _leaf():
    total = 0
    for i in range(300_000):
        total += i
    return total


def _wrapper():
    return _leaf()


def _outer():
    return [_wrapper() for _ in range(3)]


def _profile():
    profiler = cProfile.Profile()
    profiler.enable()
    _outer()
    profiler.disable()
    return profiler


def test_profile_keeps_top_by_cumtime_and_by_tottime(tmp_path):
    prof = profile_to_dict(_profile(), top=5)
    top, top_self = prof["top"], prof["top_self"]
    assert 0 < len(top) <= 5 and 0 < len(top_self) <= 5
    cum = [r["cumtime"] for r in top]
    assert cum == sorted(cum, reverse=True)
    self_t = [r["tottime"] for r in top_self]
    assert self_t == sorted(self_t, reverse=True)
    # The wrappers outrank the leaf by cumulative time; by self time the
    # leaf comes first.
    names = [r["function"] for r in top]
    assert names.index("_outer") < names.index("_wrapper") < names.index("_leaf")
    assert top_self[0]["function"] == "_leaf"
    assert top_self[0]["ncalls"] == 3
    assert set(top_self[0]) == set(top[0])
    out = tmp_path / "profile.json"
    write_profile(prof, str(out))
    assert json.loads(out.read_text())["top_self"][0]["function"] == "_leaf"


def test_profile_top_limits_both_lists():
    prof = profile_to_dict(_profile(), top=1)
    assert len(prof["top"]) == 1 and len(prof["top_self"]) == 1
    assert prof["top_self"][0]["function"] == "_leaf"
