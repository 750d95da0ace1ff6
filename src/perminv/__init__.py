"""Permutation-inversion verification lab.

Five pieces:

* :mod:`perminv.young` -- exact Young-diagram combinatorics (dimensions,
  branching, characters, the block-eigenvalue formula).
* :mod:`perminv.regrep` -- the regular representation of S_N, each operator
  kept as one certified integer column: partial-assignment subspaces,
  high/low projectors, the challenge-averaged operator and its spectrum.
* :mod:`perminv.querysim` -- statevector simulation of the purified-oracle
  bit-fixing game, query-support and progress-bound checks, Grover search,
  and the alternating-measurement game.
* :mod:`perminv.attacks` -- Hellman-style cycle-walking tables and (S, T)
  tradeoff sweeps.
* :mod:`perminv.cli` -- one command-line entry point for all of the above.
"""

from perminv import attacks, querysim, regrep, young

__all__ = ["young", "regrep", "querysim", "attacks"]
__version__ = "0.1.0"
