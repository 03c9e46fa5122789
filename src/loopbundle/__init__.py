"""Numerical library for smooth loops and principal bundles with loop fiber.

Modules: ``core`` (products and divisions), ``zoo`` (the loop catalog),
``dual`` (forward-mode derivatives: complex steps and Taylor jets), ``tangent`` (frames and
structure functions), ``reconstruct`` (products from frame data),
``bundle`` (atlases and transition functions), ``gauge`` (connections
and curvature), ``cli`` (verification harness).
"""

from .core import (LoopDescriptor, associator, left_divide, product,
                   right_divide)
from .errors import LoopError
from .report import RunConfig, VerificationReport
from .zoo import LoopSpec, catalog_names, make_loop

__version__ = "0.1.0"

__all__ = [
    "LoopDescriptor",
    "LoopError",
    "LoopSpec",
    "RunConfig",
    "VerificationReport",
    "associator",
    "catalog_names",
    "left_divide",
    "make_loop",
    "product",
    "right_divide",
    "__version__",
]
