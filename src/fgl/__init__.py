"""Exact-arithmetic computations with formal group laws.

Subpackages by subject:

- ``ratint``  -- exact scalars, p-adic valuations, integer-lattice kernels
- ``mpoly``   -- sparse weight-graded multivariate polynomials: arithmetic
  over Q; Z and F_p polynomials are containers
- ``pseries`` -- truncated power series, logarithms and exponentials of
  formal group laws, axiom checking
- ``bp``      -- the Brown-Peterson formal group law and Hazewinkel generators
- ``morava``  -- the G(s)/K(s) formal group laws and Witt symmetric functions
- ``abel``    -- the Abel formal group law
- ``ptypical``-- 2-typification of the Abel law: classifying map, kernel
  relations, generating function
- ``cli``     -- command-line front end, including the reference-value run
"""

__version__ = "0.1.0"
