"""cpdlab: a small laboratory for offline change-point detection.

Classical scan statistics (CUSUM family, generalised likelihood-ratio
scans, a rank-based scan), feedforward ReLU networks that contain those
scans exactly and can be trained on labelled examples, seeded synthetic
benchmark generators, a sliding-window multi-change localiser, and a
Monte-Carlo harness that checks the advertised error bounds.

Each module's ``__all__`` is its one list of public names, and the
package re-exports every one of them; ``cpdlab.cli`` is not imported.
"""

from .cusum import *
from .glr import *
from .robust import *
from .simulate import *
from .network import *
from .localise import *
from .evaluate import *
from .dataio import *
from .recipes import *

__version__ = "0.1.0"
