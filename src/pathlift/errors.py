"""Shared exception types.

Input/validation problems raise plain ValueError throughout the library.
Mathematical preconditions that can fail at runtime on otherwise
well-formed input get their own hierarchy so callers (and the CLI exit
codes) can tell the two apart.
"""


class MathPreconditionError(RuntimeError):
    """A mathematical precondition failed on valid input."""


class ParabolicityError(MathPreconditionError):
    """2a - sigma sigma^T has a negative eigenvalue beyond tolerance."""

    def __init__(self, t, x, min_eigenvalue, row=None):
        self.t, self.x, self.min_eigenvalue, self.row = t, x, min_eigenvalue, row
        at_row = "" if row is None else f" in row {row}"
        super().__init__(
            f"parabolicity violated at t={t!r}, x={x!r}{at_row}: "
            f"min eigenvalue of 2a - sigma sigma^T is {min_eigenvalue:.3e}"
        )


class DivergenceError(MathPreconditionError):
    """An integrated path reached a non-finite value."""

    def __init__(self, step, t, seed, seed_b, row=None):
        self.step, self.t, self.seed, self.seed_b = step, t, seed, seed_b
        self.row = row
        at_row = "" if row is None else f" in row {row}"
        super().__init__(
            f"path diverged: first non-finite value at step {step} "
            f"(t={t!r}){at_row} for w.seed={seed}, seed_b={seed_b}"
        )
