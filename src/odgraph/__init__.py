"""Order-divisor graphs of finite groups.

The order-divisor graph of a finite group G has one vertex per element,
with two distinct vertices adjacent exactly when their element orders
differ and one order divides the other. This package builds the graphs
explicitly for cyclic, dihedral, unit, and direct-product groups,
evaluates closed-form invariants without building anything, and verifies
that the two routes agree.

Every name in a module's ``__all__`` is importable from the package; the
module's ``__all__`` is the one place a name is made public.
"""

from .errors import *
from .groups import *
from .graph import *
from .formulas import *
from .verify import *
from .cli import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__
    + groups.__all__
    + graph.__all__
    + formulas.__all__
    + verify.__all__
    + cli.__all__
)
