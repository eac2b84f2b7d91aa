"""comodcheck: exact verification of the categorical laws of comodules
over cocommutative coalgebras.

The package builds finite-dimensional cocommutative coalgebras and their
comodules over Q or F_p as exact structure-constant matrices, implements
the cotensor monoidal structure, the indexed functors Sigma/pullback/
forall, and the LNL hyperdoctrine over tensor powers, and machine-checks
every law (coherence, adjunctions, Beck-Chevalley, Frobenius, strong
monoidal closure, hyperdoctrine conditions) on concrete instances.

All arithmetic is exact and pure Python: elimination runs from one set
of kernels in ``comodcheck._core_py``, and maps are composed and inverted
from the nonzeros of their columns.
"""

from .fields import GF, QQ, Field

__version__ = "0.1.0"

__all__ = ["Field", "QQ", "GF", "__version__"]
