"""Every name the benchmark's tracer patches still exists in the package.

bench/tracing.py wraps each (module, attribute path) in its TARGETS list; a
name deleted from the package shows up there only as a bare KeyError when
a traced run starts.  This test names the missing entry instead, so a
change that deletes a patched name sees which edit under bench/ must land
first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    missing = []
    for mod_name, path, _ in load_targets():
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer reads the name from its owner's own namespace, as here
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod_name}:{path}")
    assert missing == [], f"bench/tracing.py TARGETS names what the package lacks: {missing}"
