"""Exact verification and symmetry-reduced search for formally dual sets
in finite abelian groups.

Modules by responsibility:

* ``abelian``     -- group arithmetic, difference counts, pairings, automorphisms
* ``cyclotomic``  -- exact root-of-unity arithmetic (the integer backbone)
* ``duality``     -- weight enumerators, character spectra, pair checking
* ``primitivity`` -- primitivity from nu_S and pairing annihilators, with witnesses
* ``search``      -- exhaustive tree search with symmetry reduction
* ``cli``         -- the ``fdual`` command line tool
"""

__version__ = "0.1.0"
