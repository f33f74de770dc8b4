"""The package's public names resolve on first access (kerrqgt.__getattr__)
to the objects their defining modules bind, and `import kerrqgt` alone loads
none of the numerical modules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kerrqgt

ROOT = Path(__file__).resolve().parents[1]
PUBLIC = [name for name in kerrqgt.__all__ if name != "__version__"]

# in a fresh interpreter, before any public name is resolved: dir(kerrqgt),
# the package modules and numpy then loaded, and the names a star import binds
PROBE = """\
import json, sys, kerrqgt
listed = dir(kerrqgt)
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("kerrqgt"))
namespace = {}
exec("from kerrqgt import *", namespace)
print(json.dumps([listed, loaded, sorted(namespace)]))
"""


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_the_object_of_its_defining_module(name):
    value = getattr(kerrqgt, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("kerrqgt.")
    assert getattr(home, name) is value


def test_dir_and_star_import_list_every_public_name_and_load_no_numpy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    listed, loaded, star = json.loads(proc.stdout)
    assert set(kerrqgt.__all__) <= set(listed)
    assert loaded == ["kerrqgt"]
    assert set(kerrqgt.__all__) <= set(star)
    namespace = {}
    exec("from kerrqgt import *", namespace)
    assert namespace["scaling_pipeline"] is kerrqgt.scaling_pipeline
    assert namespace["__version__"] == kerrqgt.__version__


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'kerrqgt' has no attribute 'no_such_name'"):
        kerrqgt.no_such_name
    assert not hasattr(kerrqgt, "MODES")
