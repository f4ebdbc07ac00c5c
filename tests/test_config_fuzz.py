"""Property test: no single malformed value in a shipped config crashes ``validate``."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isaacslab.cli import main

CONFIGS = {path.name: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))}
REPLACEMENTS = [float("nan"), float("inf"), float("-inf"), -1, 0, 1.5, 1e300, True, None,
                "x", [], {}]


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)) and node:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


@st.composite
def one_leaf_replaced(draw):
    raw = json.loads(json.dumps(CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]))
    *parents, last = draw(st.sampled_from(list(_leaf_paths(raw))))
    node = raw
    for key in parents:
        node = node[key]
    node[last] = draw(st.sampled_from(REPLACEMENTS))
    return raw


# validate only: a mutated size can legitimately ask ``run`` for an enormous solve
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=one_leaf_replaced())
def test_validate_exits_with_a_documented_code(tmp_path, raw):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["validate", str(path)]) in (0, 2, 3, 4)
