"""Algorithm instance footprints over a scalable benchmark suite.

Predicts optimizer performance from landscape features, explains the
predictions with Shapley attributions, and partitions test instances into
deterministic (algorithm, model) quality clusters.
"""

__version__ = "0.2.9"

from .errors import ConfigurationError, ContractViolation

__all__ = ["ConfigurationError", "ContractViolation", "__version__"]
