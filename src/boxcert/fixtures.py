"""Two tiny reference networks encoding the same piecewise-linear function.

Both compute the hat function that is 1 for x <= 0, 1 - x on (0, 1) and 0 for
x >= 1, as two stacked 2-wide ReLU layers. The first wiring loses precision
under interval propagation (the unit box widens to [0, 1.5]); the second wiring
propagates the unit box to exactly [0, 1]. They exercise the evaluator's
precision behavior end to end and serve as known-answer fixtures for the CLI.
"""

from __future__ import annotations

from .network import Network, NetworkBuilder


def _two_layer(hidden2: tuple[tuple[float, float], tuple[float, float]], name: str) -> Network:
    b = NetworkBuilder(1)
    first = b.relu(b.csr_affine(0, [1, 1], [0, 0], [0.5, 0.5], [0.0, 0.0]))
    second = b.relu(b.csr_affine(first, [2, 2], [0, 1, 0, 1], [w for row in hidden2 for w in row], [0.5, 0.5]))
    out = b.csr_affine(second, [2], [0, 1], [1.0, 1.0], [0.0])
    return b.finish(out, {"fixture": name})


def fig2_n1() -> Network:
    """The loose wiring: unit box propagates to [0, 1.5]."""
    return _two_layer(((-1.5, 0.5), (0.5, -1.5)), "fig2-n1")


def fig2_n2() -> Network:
    """The tight wiring: unit box propagates to [0, 1]."""
    return _two_layer(((-0.5, -0.5), (-0.5, -0.5)), "fig2-n2")


FIXTURES = {"fig2-n1": fig2_n1, "fig2-n2": fig2_n2}
