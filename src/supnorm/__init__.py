"""Amplified sup-norm machinery for cusp forms of square-free level.

Library layout, in two layers: the exact core (arithmetic, kloosterman, counting,
amplifier, exponents) over numpy, and the analytic modules above it over scipy:

- :mod:`supnorm.arithmetic`   -- the number-theory core, rational approximation, moduli, characters
- :mod:`supnorm.kloosterman`  -- twisted Kloosterman sums and the Weil-type reference bound
- :mod:`supnorm.specfun`      -- Bessel kernels, Whittaker weights, inequality checkers
- :mod:`supnorm.transforms`   -- the J_A(x) x^{-B} test function and its Bessel transforms
- :mod:`supnorm.oscillatory`  -- smooth windows, Poisson decay, kernel integrals
- :mod:`supnorm.counting`     -- congruence box counting, congruence reduction, matrix counting
- :mod:`supnorm.amplifier`    -- synthetic Hecke systems and the amplifier identity
- :mod:`supnorm.exponents`    -- exact-rational exponent calculus and parameter optimization
- :mod:`supnorm.verify`       -- the property-suite driver behind ``supnorm verify``
"""

__version__ = "0.1.0"
