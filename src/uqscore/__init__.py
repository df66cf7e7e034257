"""Loss-based uncertainty quantification for finite second-order beliefs.

The :mod:`uqscore.measures` module decomposes the expected loss of a
scoring rule into entropy and divergence parts, turning each rule (log,
Brier, zero-one, spherical) into a total/aleatoric/epistemic uncertainty
measure over a finite set of member distributions.  The remaining modules
evaluate those measures on downstream tasks: selective prediction
(:mod:`uqscore.selective`), out-of-distribution detection
(:mod:`uqscore.ood`), and pool-based active learning
(:mod:`uqscore.active`), with brute-force oracles in
:mod:`uqscore.verify` and a CLI in :mod:`uqscore.cli`.
"""

from . import measures, selective, ood, active, records
from .measures import *  # noqa: F403
from .selective import *  # noqa: F403
from .ood import *  # noqa: F403
from .active import *  # noqa: F403
from .records import *  # noqa: F403

__version__ = "0.2.0"

# each module's __all__ is the one list of its public names, so a name is added or dropped in one place
__all__ = [*measures.__all__, *selective.__all__, *ood.__all__, *active.__all__, *records.__all__, "__version__"]
