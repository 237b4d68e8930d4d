"""Exact-arithmetic workbench for function field L-series coefficients,
Hecke operators on F_q[t]-lattices, and Carlitz torsion algebras.

Layers, from the ground up:

* ``fieldcore``: finite fields F_q (q a prime power), polynomial arithmetic
  and factorization over them;
* ``groupring``: the unit group of F_q[t]/I, its integral group ring and
  the central-symbol polynomial ring over it;
* ``heckelat``: canonical triangular bases for full rank sublattices of
  A^n, sublattice enumeration and counting, and the Hecke operators with
  their Newton-type and multiplicativity checks;
* ``lseries``: the coprime-class power series over Z[G_I], Stickelberger
  style elements Theta_n, and their identity battery;
* ``carlitz``: the Carlitz module, cyclotomic torsion factors Psi_I, the
  torsion algebra over F_q(t), and the tensor square split element;
* ``report``: check records and the deterministic JSON report document;
* ``battery``: one definition per check family (its check ids, anchors and
  records), shared by the subcommands and the ``verify-all`` grid;
* ``cli``: the ``ffstick`` command line surface, argument parsing and one
  thin handler per subcommand.

Import the layer module that holds a name (``from ffstick import heckelat``
or ``from ffstick.heckelat import t_local``); the package re-exports no
function or class.  ``import ffstick`` binds ``__version__`` and the five
arithmetic layers.  It imports them bottom up, so that every entry point
loads the package in one order: the order in which uncached sources are
compiled moves peak memory by about 1 MB.

Everything computes over Z or F_q exactly; no floats appear anywhere.
"""

__version__ = "0.1.0"  # set first: submodules import ``report``, which reads it

# Bottom up, whatever an entry point names first: without this import,
# ``from ffstick import carlitz, cli`` compiles ``carlitz`` before the rest,
# and where no bytecode is cached that order alone costs about 1 MB more
# peak RSS.
from . import fieldcore, groupring, heckelat, lseries, carlitz

__all__ = ["__version__", "fieldcore", "groupring", "heckelat", "lseries", "carlitz"]
