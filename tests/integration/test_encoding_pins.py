"""Encoding pins: the exact qubit images of Table-I generators under each Γ.

The benchmark's chemistry (one frozen spatial orbital, HMP2 term order)
on three cells.  Each pin is the SHA-256 of every term generator's qubit
image, as ``(x_mask, z_mask, coeff.real, coeff.imag)`` in dict order, under
Bravyi-Kitaev, parity and the Γ the advanced pipeline's ``gamma_search``
stage chooses at config seed 0.

Verification cannot see a sign error here: it compares compiled circuits
against rotations taken from the same transform.  These pins hold the
strings, their order and every coefficient bit.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from operator_oracle import DictLinearEncoding, generator
from repro.api import CompilerConfig
from repro.chemistry import build_molecular_hamiltonian, make_molecule, run_rhf
from repro.core import AdvancedPipeline
from repro.core.pipeline import classify_stage, gamma_search_stage, schedule_hybrid_stage
from repro.transforms import BravyiKitaevTransform, LinearEncodingTransform, ParityTransform
from repro.vqe import select_ansatz_terms

#: (molecule, n_terms, encoding) -> sha256 of the generator images.
PINS = {
    ("LiH", 20, "bravyi-kitaev"):
        "8654597e0de688b26600adb2cded86e9d79eab8339e756bced5a44b31a490133",
    ("LiH", 20, "parity"):
        "e32d713b2d5d6ad3b46b81ac10f0c1b4894fbf18da0055dd74477b3f6900a5bf",
    ("LiH", 20, "advanced"):
        "18bbdb31aee58b2e4fae5c9492fa417bc93e054f49e7f9e72124eb7c22ed8b14",
    ("H2O", 20, "bravyi-kitaev"):
        "aeeee5787f51eac6bda1c391293605a3bccbc0bb403d7ca8e357478372b7e695",
    ("H2O", 20, "parity"):
        "7a9fb5cfc935c70ec925365903d00e39130bc1ebbfc77bd6f3de4a3f7cff837e",
    ("H2O", 20, "advanced"):
        "2243be8a8d34c5670e977431304f5e683daea5d8aa19bf6ac3171aeebd8271f4",
    ("NH3", 30, "bravyi-kitaev"):
        "3f9f11240485e44c6f8ea15ef7f310c85c8bed795fb596d8e517f3e3ddaa18fa",
    ("NH3", 30, "parity"):
        "d90133c232fd910e12a5f979180600ac39c5e35dc7bdd20ac16db7989acdbe41",
    ("NH3", 30, "advanced"):
        "eef7bbe8471a17b401c47bb040106d29fa40cecd132f1894ba6e32644ad81a7d",
}


@lru_cache(maxsize=None)
def cell_terms(molecule, n_terms):
    hamiltonian = build_molecular_hamiltonian(
        run_rhf(make_molecule(molecule)), n_frozen_spatial_orbitals=1
    )
    return tuple(select_ansatz_terms(hamiltonian, n_terms)), hamiltonian.n_spin_orbitals


def chosen_gamma(terms, n_qubits):
    """The Γ the advanced pipeline's stages pick at config seed 0."""
    context = AdvancedPipeline(CompilerConfig(seed=0)).make_context(terms, n_qubits)
    for stage in (classify_stage, schedule_hybrid_stage, gamma_search_stage):
        stage(context)
    return context.gamma


def image_digest(operators) -> str:
    images = [
        [
            [string.x_mask, string.z_mask, coefficient.real, coefficient.imag]
            for string, coefficient in operator.terms.items()
        ]
        for operator in operators
    ]
    return hashlib.sha256(json.dumps(images).encode()).hexdigest()


@pytest.mark.parametrize("pin", sorted(PINS), ids=lambda pin: "-".join(map(str, pin)))
def test_generator_images_are_pinned(pin):
    molecule, n_terms, encoding = pin
    terms, n_qubits = cell_terms(molecule, n_terms)
    if encoding == "bravyi-kitaev":
        transform = BravyiKitaevTransform(n_qubits)
    elif encoding == "parity":
        transform = ParityTransform(n_qubits)
    else:
        transform = LinearEncodingTransform(chosen_gamma(terms, n_qubits))
    images = [DictLinearEncoding(transform).transform(generator(term)) for term in terms]
    assert image_digest(images) == PINS[pin]
