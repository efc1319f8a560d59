"""jetweyl: exact jet-space calculus for a dispersionless integrable system
and the Lorentzian Einstein-Weyl structures its solutions carry.

Subpackages by theme:

* :mod:`jetweyl.exprcore`   exact symbolic kernel (canonical rational forms)
* :mod:`jetweyl.syntax`     the DSL's grammar and name rules, read without
                            sympy
* :mod:`jetweyl.dsl`        sympy expressions and solutions from DSL text
* :mod:`jetweyl.jets`       the jet field without sympy: total derivatives,
                            the equation system, reduction, jet points, the
                            written definitions, their reader and printer
* :mod:`jetweyl.trees`      sympy trees into jet rings and out
* :mod:`jetweyl.fields`     point vector fields and their prolongations
* :mod:`jetweyl.symmetry`   the symmetry families, commutator table, the
                            structure-preserving pseudogroup, orbit dimensions
* :mod:`jetweyl.invariants` differential invariants, invariant derivations,
                            structure coefficients
* :mod:`jetweyl.counts`     jet-space dimensions and the invariant counts
* :mod:`jetweyl.sections`   the section field without sympy: solutions,
                            metric/one-form pairs, Weyl connection, Einstein
                            condition, sampled signatures, the section reader
* :mod:`jetweyl.geometry`   the tree side of sections: moves, reflections,
                            the canonical frame, the explicit-solution catalog
* :mod:`jetweyl.equivalence` signature clouds of jet points, I-regularity;
                            re-exports the sampler and signature of sections
* :mod:`jetweyl.clouds`     signature clouds: comparison, JSON form
* :mod:`jetweyl.checks`     the named checks behind ``verify-all`` and the
                            acceptance battery
* :mod:`jetweyl.cli`        the ``jetweyl`` command-line tool

``import jetweyl`` loads none of them.
"""

__version__ = "0.1.0"
