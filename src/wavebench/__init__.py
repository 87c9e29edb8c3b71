"""DoF-matched benchmarking of a sine-basis spectral surrogate against
Crank-Nicolson P1 finite elements for the 2-D Dirichlet wave equation."""

__version__ = "0.1.0"
