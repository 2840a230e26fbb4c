"""Built-in reference energy tables used for regression diffing.

Each entry is the published sequence E_0..E_5 (4 decimal places) for one
parameter set and boundary condition; the `table` command recomputes every
cell and reports the differences.

Published rows are kept exactly as printed.  A row that does not match the
Hamiltonian it names gets an entry in ERRATA, and the `table` command and
the acceptance tests compare against that corrected row instead.  The one
entry is table 2's (g=1, a=1.8) row: its E_0 = 1.6733 = sqrt(2.8) belongs to
a = 1.8, but its E_1..E_5 are what the iteration gives at a ~= 1.7919.  At
a = 1.8 the converged energy is 0.9453 by the iteration, by the sinc-DVR
oracle and by an independent finite-difference eigensolve, and
adaptive quadrature of the first step gives E_1 = 0.9579, not 0.9558.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TableRow", "Erratum", "TABLE1", "TABLE2", "TABLE3", "TABLES", "ERRATA",
    "KNOWN_DISCREPANT_ROWS", "expected_energies",
]


@dataclass(frozen=True)
class TableRow:
    label: str
    g: float
    a: float
    bc: str
    energies: tuple[float, ...]   # E_0 .. E_5
    origin: str


TABLE1 = (
    TableRow("I", 1.0, 2.0, "I", (1.7321, 1.0163, 1.0031, 1.0005, 1.0001, 1.0000), "table-1"),
    TableRow("II", 1.0, 2.0, "II", (1.7321, 1.0163, 0.9981, 1.0002, 1.0000, 1.0000), "table-1"),
)

TABLE2 = (
    TableRow("a=1.8", 1.0, 1.8, "II", (1.6733, 0.9558, 0.9418, 0.9432, 0.9431, 0.9431), "table-2"),
    TableRow("a=2", 1.0, 2.0, "II", (1.7321, 1.0163, 0.9981, 1.0002, 1.0000, 1.0000), "table-2"),
    TableRow("a=3", 1.0, 3.0, "II", (2.0000, 1.2974, 1.2602, 1.2659, 1.2651, 1.2652), "table-2"),
)

TABLE3 = (
    TableRow("g=0.88", 0.88, 2.0, "II", (1.5242, 0.8633, 0.8517, 0.8528, 0.8527, 0.8527), "table-3"),
    TableRow("g=1", 1.0, 2.0, "II", (1.7321, 1.0163, 0.9981, 1.0002, 1.0000, 1.0000), "table-3"),
    TableRow("g=2", 2.0, 2.0, "II", (3.4641, 2.6934, 2.6375, 2.6465, 2.6455, 2.6456), "table-3"),
    TableRow("g=3", 3.0, 2.0, "II", (5.1962, 4.5786, 4.5562, 4.5591, 4.5589, 4.5589), "table-3"),
)

TABLES = {1: TABLE1, 2: TABLE2, 3: TABLE3}


@dataclass(frozen=True)
class Erratum:
    energies: tuple[float, ...]   # corrected E_0 .. E_5
    provenance: str


# corrected rows, keyed by (origin, label) of the published row they replace
ERRATA = {
    ("table-2", "a=1.8"): Erratum(
        (1.6733, 0.9579, 0.9440, 0.9454, 0.9453, 0.9453),
        "E0 = sqrt(2.8); E1 by adaptive quadrature of the first step; "
        "E5 = 0.945325 by the oracle and by an independent eigensolve",
    ),
}

# rows whose published values cannot be reproduced from the stated (g, a);
# they are gated against their erratum, not against the published row.  A
# copy of ERRATA's keys that only the benchmark harness reads, kept until the
# harness reads ERRATA
KNOWN_DISCREPANT_ROWS = frozenset(ERRATA)


def expected_energies(row: TableRow) -> tuple[float, ...]:
    """The row a recomputation must reproduce: the erratum where one exists,
    the published energies otherwise."""
    erratum = ERRATA.get((row.origin, row.label))
    return row.energies if erratum is None else erratum.energies
