"""Exception types shared across the package.

The CLI maps these onto exit codes: UsageError -> 2, IncompleteSearchError -> 3;
a Ctrl-C (KeyboardInterrupt) that reaches it also exits 3.
A verified mismatch or counterexample is not an exception; it is a result
(exit code 1 at the CLI level).
"""

from __future__ import annotations


class UsageError(ValueError):
    """Caller error: bad argument, malformed file, out-of-range parameter."""


class TraceError(UsageError):
    """A construction trace failed validation.

    `path` locates the offending node: "" is the root, then one character
    per descent, "0" for left and "1" for right.
    """

    def __init__(self, message: str, path: str):
        super().__init__(f"trace node '{path or '<root>'}': {message}")
        self.path = path


class IncompleteSearchError(RuntimeError):
    """A search stopped before finishing: its budget ran out, or it was
    interrupted (Ctrl-C), which `budget` None marks.

    Carries the best incumbent found so far so callers never mistake a
    partial answer for a complete one.
    """

    def __init__(self, h: int, best_value: int | None, best_side: int | None,
                 subsets_examined: int, budget: float | None):
        side = None if best_side is None else sorted(
            v for v in range(best_side.bit_length()) if best_side >> v & 1)
        cause = "interrupted" if budget is None \
            else f"incomplete after budget of {budget:g}s"
        super().__init__(
            f"search {cause} "
            f"(h={h}, best incumbent so far: {best_value}, side={side}, "
            f"examined={subsets_examined})")
        self.h = h
        self.best_value = best_value
        self.best_side = best_side
        self.subsets_examined = subsets_examined
        self.budget = budget
