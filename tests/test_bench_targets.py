"""The functions the benchmark's traced pass wraps all still exist.

``perfbench/spans.py`` names each target as (module, attribute) and wraps
it on a traced run; a target deleted or renamed in the package would
otherwise surface only when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_resolves():
    missing = []
    for module_name, attr in _span_targets():
        owner = importlib.import_module(f"fal_spectrum.{module_name}")
        cls_name, _, name = attr.rpartition(".")
        if cls_name:  # read from the class's own namespace, as install does
            owner = getattr(owner, cls_name, None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
