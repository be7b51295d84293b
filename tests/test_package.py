import os
import subprocess
import sys
import types
from pathlib import Path

import lcsnn

SRC = Path(__file__).resolve().parents[1] / "src"

# The order the modules load in sets the heap layout that the decoder's
# per-tick temporaries land in, and with it paper-scale decoder speed; see
# the comment in src/lcsnn/__init__.py.
LOAD_ORDER = ["lcsnn.config", "lcsnn.encoding", "lcsnn.checkpoint", "lcsnn.topology",
              "lcsnn.monitors", "lcsnn.neurons", "lcsnn.plasticity", "lcsnn.reward",
              "lcsnn.engine", "lcsnn"]


def test_import_keeps_the_module_load_order():
    code = ("import sys, lcsnn\n"
            "print(lcsnn.__file__)\n"
            "print(*(m for m in sys.modules if m == 'lcsnn' or m.startswith('lcsnn.')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    path, loaded = out.splitlines()
    assert Path(path).resolve() == SRC / "lcsnn" / "__init__.py"
    assert loaded.split() == LOAD_ORDER


def test_package_binds_only_its_modules():
    names = {n for n in vars(lcsnn) if not n.startswith("__")}
    assert all(isinstance(getattr(lcsnn, n), types.ModuleType) for n in names)
    assert not {"__all__", "__version__"} & set(vars(lcsnn))
