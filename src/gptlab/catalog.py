"""Bundled example theories.

Six desk-scale instances exercising every analysis the library offers:
two classical systems, the two knowledge-balance (toy bit) theories, and
the two rebit variants.  Labels follow the established conventions for
these models (eta/zeta for the toy theories, s/e for the rebit family) so
the printed tables are immediately recognisable.
"""

from __future__ import annotations

from .errors import InputError
from .theory import Gpt, Pvvm, build_gpt


def _classical(name: str, effect_prefix: str, state_prefix: str, measurement: str, n: int) -> Gpt:
    """The n-level classical theory: simplex states, the n point effects and
    the one n-outcome nonrefinable measurement they form."""
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    effects = [(f"{effect_prefix}{i + 1}", v) for i, v in enumerate(basis)]
    return build_gpt(
        dim=n,
        unit=(1,) * n,
        effects=effects,
        states=[(f"{state_prefix}{i + 1}", v) for i, v in enumerate(basis)],
        claims_no_restriction=True,
        pvvms=[Pvvm(measurement, tuple(label for label, _ in effects))],
        name=name,
    )


def classical_bit() -> Gpt:
    return _classical("classical_bit", "e", "p", "M", 2)


def classical_trit() -> Gpt:
    return _classical("classical_trit", "e", "p", "M", 3)


def spekkens_container() -> Gpt:
    """The four-level classical theory hosting the toy bit: simplex states,
    hypercube effects, one four-outcome nonrefinable measurement."""
    return _classical("spekkens_container", "zeta", "eta", "Q", 4)


def spekkens_toy() -> Gpt:
    """The toy bit: the knowledge-balance restriction of the container.

    States and effects are the six two-level disjunctions; both octahedra
    sit strictly inside the container's sets, so the no-restriction
    property fails by construction.
    """
    half = "1/2"
    return build_gpt(
        dim=4,
        unit=(1, 1, 1, 1),
        effects=[
            ("zeta5", (1, 1, 0, 0)),
            ("zeta6", (0, 0, 1, 1)),
            ("zeta7", (1, 0, 1, 0)),
            ("zeta8", (0, 1, 0, 1)),
            ("zeta9", (0, 1, 1, 0)),
            ("zeta10", (1, 0, 0, 1)),
        ],
        states=[
            ("eta5", (half, half, 0, 0)),
            ("eta6", (0, 0, half, half)),
            ("eta7", (half, 0, half, 0)),
            ("eta8", (0, half, 0, half)),
            ("eta9", (0, half, half, 0)),
            ("eta10", (half, 0, 0, half)),
        ],
        claims_no_restriction=False,
        pvvms=[
            Pvvm("A", ("zeta5", "zeta6")),
            Pvvm("B", ("zeta7", "zeta8")),
            Pvvm("C", ("zeta9", "zeta10")),
        ],
        name="spekkens_toy",
    )


def rebit() -> Gpt:
    """The stabilizer rebit: four pure states and four sharp effects of a
    real qubit, in three dimensions with unit (0, 0, 2)."""
    half = "1/2"
    return build_gpt(
        dim=3,
        unit=(0, 0, 2),
        effects=[
            ("e1", (1, 0, 1)),
            ("e2", (-1, 0, 1)),
            ("e3", (0, 1, 1)),
            ("e4", (0, -1, 1)),
        ],
        states=[
            ("s1", (half, 0, half)),
            ("s2", (f"-{half}", 0, half)),
            ("s3", (0, half, half)),
            ("s4", (0, f"-{half}", half)),
        ],
        claims_no_restriction=False,
        pvvms=[Pvvm("Z", ("e1", "e2")), Pvvm("X", ("e3", "e4"))],
        name="rebit",
    )


def rebit_completion() -> Gpt:
    """The rebit's canonical state completion: same effects, states grown to
    the full dual square s5..s8."""
    half = "1/2"
    return build_gpt(
        dim=3,
        unit=(0, 0, 2),
        effects=[
            ("e1", (1, 0, 1)),
            ("e2", (-1, 0, 1)),
            ("e3", (0, 1, 1)),
            ("e4", (0, -1, 1)),
        ],
        states=[
            ("s5", (half, half, half)),
            ("s6", (f"-{half}", half, half)),
            ("s7", (half, f"-{half}", half)),
            ("s8", (f"-{half}", f"-{half}", half)),
        ],
        claims_no_restriction=True,
        pvvms=[Pvvm("Z", ("e1", "e2")), Pvvm("X", ("e3", "e4"))],
        name="rebit_completion",
    )


BUNDLED = {
    "classical_bit": classical_bit,
    "classical_trit": classical_trit,
    "spekkens_container": spekkens_container,
    "spekkens_toy": spekkens_toy,
    "rebit": rebit,
    "rebit_completion": rebit_completion,
}

ALIASES = {"bit": "classical_bit", "trit": "classical_trit"}


def bundled_names() -> tuple[str, ...]:
    return tuple(BUNDLED)


def get(name: str) -> Gpt:
    key = ALIASES.get(name, name)
    if key not in BUNDLED:
        known = ", ".join(bundled_names())
        raise InputError(f"unknown bundled theory {name!r}; available: {known}")
    return BUNDLED[key]()
