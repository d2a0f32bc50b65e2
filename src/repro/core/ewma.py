"""Exponentially weighted moving average (EWMA).

The monitoring phase of the Dynamic mechanism smooths per-interval request
ratios with EWMAs (Formula 1/3): ``v' = (1 - rate) * v + rate * sample``.
A larger rate weights the current interval more (the paper uses α=0.9 for
the direction split and β=0.5 for the per-destination split).
"""

from __future__ import annotations


class Ewma:
    """A single EWMA-tracked value."""

    def __init__(self, rate: float, initial: float = 0.0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"EWMA rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.value = float(initial)

    def update(self, sample: float) -> float:
        """Fold one interval's sample in; returns the new value."""
        self.value = (1.0 - self.rate) * self.value + self.rate * sample
        return self.value

    def __repr__(self) -> str:
        return f"Ewma(rate={self.rate}, value={self.value:.4f})"


__all__ = ["Ewma"]
