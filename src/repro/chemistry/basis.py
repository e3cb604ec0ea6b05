"""Minimal STO-3G basis set and Gaussian basis-function containers.

The paper evaluates every molecule in the STO-3G minimal basis.  Because no
quantum-chemistry package is available in this environment, the basis set data
(three-Gaussian expansions of Slater-type orbitals, scaled per element) and
the machinery for contracted Cartesian Gaussians are implemented here from
scratch.  Exponents and contraction coefficients are the standard published
STO-3G values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.chemistry.hermite import primitive_overlap

#: Conversion factor from Angstrom to Bohr radii.
ANGSTROM_TO_BOHR = 1.8897259886

#: Atomic numbers of the elements supported by the built-in STO-3G data.
ATOMIC_NUMBERS: Dict[str, int] = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8, "F": 9, "Ne": 10,
}

#: STO-3G exponents and contraction coefficients per element and shell type.
#: Shell types: "1s" (S), "2sp" (combined S and P shells sharing exponents).
STO3G_DATA: Dict[str, Dict[str, Dict[str, Tuple[float, float, float]]]] = {
    "H": {
        "1s": {
            "exponents": (3.42525091, 0.62391373, 0.16885540),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
    },
    "He": {
        "1s": {
            "exponents": (6.36242139, 1.15892300, 0.31364979),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
    },
    "Li": {
        "1s": {
            "exponents": (16.11957475, 2.93620067, 0.79465050),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
        "2sp": {
            "exponents": (0.63628970, 0.14786010, 0.04808870),
            "s_coefficients": (-0.09996723, 0.39951283, 0.70011547),
            "p_coefficients": (0.15591627, 0.60768372, 0.39195739),
        },
    },
    "Be": {
        "1s": {
            "exponents": (30.16787069, 5.49511818, 1.48719276),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
        "2sp": {
            "exponents": (1.31483311, 0.30553890, 0.09937074),
            "s_coefficients": (-0.09996723, 0.39951283, 0.70011547),
            "p_coefficients": (0.15591627, 0.60768372, 0.39195739),
        },
    },
    "B": {
        "1s": {
            "exponents": (48.79111318, 8.88736882, 2.40526704),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
        "2sp": {
            "exponents": (2.23695611, 0.51982050, 0.16906180),
            "s_coefficients": (-0.09996723, 0.39951283, 0.70011547),
            "p_coefficients": (0.15591627, 0.60768372, 0.39195739),
        },
    },
    "C": {
        "1s": {
            "exponents": (71.61683735, 13.04509632, 3.53051216),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
        "2sp": {
            "exponents": (2.94124940, 0.68348310, 0.22228990),
            "s_coefficients": (-0.09996723, 0.39951283, 0.70011547),
            "p_coefficients": (0.15591627, 0.60768372, 0.39195739),
        },
    },
    "N": {
        "1s": {
            "exponents": (99.10616896, 18.05231239, 4.88566024),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
        "2sp": {
            "exponents": (3.78045590, 0.87849660, 0.28571440),
            "s_coefficients": (-0.09996723, 0.39951283, 0.70011547),
            "p_coefficients": (0.15591627, 0.60768372, 0.39195739),
        },
    },
    "O": {
        "1s": {
            "exponents": (130.70932140, 23.80886050, 6.44360830),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
        "2sp": {
            "exponents": (5.03315130, 1.16959610, 0.38038900),
            "s_coefficients": (-0.09996723, 0.39951283, 0.70011547),
            "p_coefficients": (0.15591627, 0.60768372, 0.39195739),
        },
    },
    "F": {
        "1s": {
            "exponents": (166.67913400, 30.36081200, 8.21682070),
            "s_coefficients": (0.15432897, 0.53532814, 0.44463454),
        },
        "2sp": {
            "exponents": (6.46480320, 1.50228120, 0.48858850),
            "s_coefficients": (-0.09996723, 0.39951283, 0.70011547),
            "p_coefficients": (0.15591627, 0.60768372, 0.39195739),
        },
    },
}


def double_factorial(n: int) -> int:
    """Return ``n!!`` with the convention ``(-1)!! = 1``."""
    if n <= 0:
        return 1
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def primitive_normalization(exponent: float, lmn: Tuple[int, int, int]) -> float:
    """Normalization constant of a primitive Cartesian Gaussian."""
    l, m, n = lmn
    total = l + m + n
    numerator = (2.0 * exponent / math.pi) ** 0.75 * (4.0 * exponent) ** (total / 2.0)
    denominator = math.sqrt(
        double_factorial(2 * l - 1)
        * double_factorial(2 * m - 1)
        * double_factorial(2 * n - 1)
    )
    return numerator / denominator


@dataclass
class BasisFunction:
    """A contracted Cartesian Gaussian basis function.

    Parameters
    ----------
    center:
        Cartesian center in Bohr.
    lmn:
        Cartesian angular momentum exponents ``(l, m, n)``.
    exponents:
        Primitive Gaussian exponents.
    coefficients:
        Contraction coefficients (for normalized primitives).
    """

    center: Tuple[float, float, float]
    lmn: Tuple[int, int, int]
    exponents: Tuple[float, ...]
    coefficients: Tuple[float, ...]
    normalized_coefficients: Tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if len(self.exponents) != len(self.coefficients):
            raise ValueError("exponents and coefficients must have the same length")
        self.center = tuple(float(c) for c in self.center)
        self.lmn = tuple(int(v) for v in self.lmn)
        # Scale contraction coefficients by the primitive norms, then normalize
        # the contracted function to unit self-overlap.
        scaled = [
            coeff * primitive_normalization(exp, self.lmn)
            for exp, coeff in zip(self.exponents, self.coefficients)
        ]
        self.normalized_coefficients = tuple(scaled)
        self_overlap = self._raw_self_overlap()
        norm = 1.0 / math.sqrt(self_overlap)
        self.normalized_coefficients = tuple(c * norm for c in scaled)

    def _raw_self_overlap(self) -> float:
        """Self overlap with the current (primitive-normalized) coefficients."""
        total = 0.0
        for exp_a, coeff_a in zip(self.exponents, self.normalized_coefficients):
            for exp_b, coeff_b in zip(self.exponents, self.normalized_coefficients):
                total += coeff_a * coeff_b * primitive_overlap(
                    exp_a, self.lmn, self.center, exp_b, self.lmn, self.center
                )
        return total

    @property
    def angular_momentum(self) -> int:
        return sum(self.lmn)


@dataclass
class Atom:
    """An atom: element symbol, atomic number and position in Bohr."""

    symbol: str
    position: Tuple[float, float, float]

    def __post_init__(self):
        if self.symbol not in ATOMIC_NUMBERS:
            raise ValueError(f"unsupported element {self.symbol!r}")
        self.position = tuple(float(x) for x in self.position)

    @property
    def atomic_number(self) -> int:
        return ATOMIC_NUMBERS[self.symbol]


@dataclass
class Molecule:
    """A molecular geometry with an optional charge.

    Positions are stored in Bohr; use :meth:`from_angstrom` for the more
    common Angstrom input.
    """

    atoms: List[Atom]
    charge: int = 0
    name: str = ""

    @classmethod
    def from_angstrom(
        cls,
        geometry: Sequence[Tuple[str, Tuple[float, float, float]]],
        charge: int = 0,
        name: str = "",
    ) -> "Molecule":
        atoms = [
            Atom(symbol, tuple(coordinate * ANGSTROM_TO_BOHR for coordinate in position))
            for symbol, position in geometry
        ]
        return cls(atoms=atoms, charge=charge, name=name)

    @property
    def n_electrons(self) -> int:
        return sum(atom.atomic_number for atom in self.atoms) - self.charge

    @property
    def nuclear_repulsion(self) -> float:
        """Nuclear-nuclear Coulomb repulsion energy in Hartree; two coincident atoms raise."""
        energy = 0.0
        for i, atom_a in enumerate(self.atoms):
            for j, atom_b in enumerate(self.atoms[i + 1:], i + 1):
                distance = math.dist(atom_a.position, atom_b.position)
                if distance == 0.0:
                    raise ValueError(f"atoms {i} ({atom_a.symbol}) and {j} ({atom_b.symbol}) "
                                     f"coincide at {atom_a.position} bohr")
                energy += atom_a.atomic_number * atom_b.atomic_number / distance
        return energy


#: Cartesian exponents of the three p orbitals, in (px, py, pz) order.
_P_SHELL = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def build_sto3g_basis(molecule: Molecule) -> List[BasisFunction]:
    """Build the list of STO-3G contracted Gaussians for a molecule.

    Basis functions are ordered atom by atom: 1s, then (2s, 2px, 2py, 2pz) for
    second-row elements.
    """
    basis: List[BasisFunction] = []
    for atom in molecule.atoms:
        element_data = STO3G_DATA.get(atom.symbol)
        if element_data is None:
            raise ValueError(f"no STO-3G data for element {atom.symbol}")
        core = element_data["1s"]
        basis.append(
            BasisFunction(
                center=atom.position,
                lmn=(0, 0, 0),
                exponents=core["exponents"],
                coefficients=core["s_coefficients"],
            )
        )
        if "2sp" in element_data:
            valence = element_data["2sp"]
            basis.append(
                BasisFunction(
                    center=atom.position,
                    lmn=(0, 0, 0),
                    exponents=valence["exponents"],
                    coefficients=valence["s_coefficients"],
                )
            )
            for lmn in _P_SHELL:
                basis.append(
                    BasisFunction(
                        center=atom.position,
                        lmn=lmn,
                        exponents=valence["exponents"],
                        coefficients=valence["p_coefficients"],
                    )
                )
    return basis
