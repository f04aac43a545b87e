"""The per-layer metrics in BENCHMARK.json name functions that still exist.

perfbench/tracing.py keys each span on the module that defines a public
function and on its name, and each claim span on its registry id. A function
renamed, moved or deleted would drop its metric from a traced run without an
error, so each name is checked here against the library.
"""

import importlib
import json
from pathlib import Path

from setgraphs.verify import ALL_CLAIM_IDS

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# metrics that perfbench computes itself rather than from a function span
NOT_SPANS = {"cli.output_bytes", "core.canonical_masks.hit_ratio"}


def _per_layer_names() -> list[str]:
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [name for name in names if not name.startswith("trace.") and name not in NOT_SPANS]


def test_per_layer_metrics_name_public_functions_and_claims():
    names = _per_layer_names()
    assert names
    for name in names:
        layer, function, _stat = name.split(".")
        if layer == "verify" and function[:1] == "C" and function[1:].isdigit():
            assert function in ALL_CLAIM_IDS, name
            continue
        module = importlib.import_module(f"setgraphs.{layer}")
        obj = getattr(module, function, None)
        assert not function.startswith("_"), name
        assert callable(obj) and not isinstance(obj, type), name
        assert obj.__module__ == module.__name__, name
