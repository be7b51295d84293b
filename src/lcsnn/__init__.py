"""Clock-driven spiking neural network with locally connected feature
learning (unsupervised, trace-based) and a reward-modulated decoding layer
trained from a scalar feedback signal.

Each name is imported from its own module (``from lcsnn.engine import
build_network``); the package re-exports nothing.
"""

# Not a re-export: this line fixes the order in which the modules load
# (engine loads the rest), and that order sets the heap layout that the
# decoder's per-tick temporaries land in.  A different order moved the
# paper-scale decoder_train_sps by 25-30% with identical numerics (see
# CHANGES.md); tests/test_package.py pins it.
from . import config, encoding, engine  # noqa: F401
