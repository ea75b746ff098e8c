"""Reference computations the benchmark checks the program's outputs against.

Everything here is computed apart from the engine: the ground energy comes
from ``numpy.linalg.eigvalsh`` of a Hamiltonian matrix built from the Pauli
terms by Kronecker products, not from ``PauliSum.ground_energy``.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, List, Tuple

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Slack for float round-off when an energy is compared with the ground energy.
ENERGY_SLACK = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with its reference."""


def wire_terms(hamiltonian) -> List[Tuple[str, float]]:
    """``[(label, coefficient), ...]`` of a PauliSum, as plain strings."""
    return [(pauli.label, float(coefficient)) for pauli, coefficient in hamiltonian.terms()]


def ground_energy(terms: Iterable[Tuple[str, float]]) -> float:
    """Lowest eigenvalue of ``sum_k c_k P_k``, built term by term.

    The tensor order of each label is the same for every term, so the
    spectrum does not depend on which end of the label is qubit 0.
    """
    matrix = None
    for label, coefficient in terms:
        term = coefficient * reduce(np.kron, [_PAULI[letter] for letter in label])
        matrix = term if matrix is None else matrix + term
    if matrix is None:
        raise CheckFailed("the Hamiltonian has no terms")
    return float(np.linalg.eigvalsh(matrix)[0])


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_above_ground(energies: Iterable[Tuple[str, float]], ground: float) -> None:
    """Every named energy lies at or above the ground energy."""
    for name, energy in energies:
        require(
            energy >= ground - ENERGY_SLACK,
            f"{name}: energy {energy!r} lies below the ground energy {ground!r}",
        )
