"""sepkit: a solver and verification lab for the balanced-separator relaxation
family, its concave reformulation, and projection rounding."""

__version__ = "0.1.0"
