"""The 103 nonsplit (n-5)-filiform families, as machine-checkable generators.

Basis convention: X1..X6 first (the filiform chain sits on X2..X6 under
ad(X1)), then Y1..Y_{n-6}.  Even-dimensional families have index 1..53
(n = 2m), odd-dimensional ones 54..103 (n = 2m+1).  Families 7 and 66
carry a continuous parameter alpha != 0.

The families are one table, `_BLOCKS`: each row gives a range of families,
their minimal m, the first Y of their Heisenberg tail (s0) and the fixed
bracket list of their common block.  `build` writes every law once, as the
filiform chain [X1, Xj] = X_{j+1}, the block, the tail [Y_a, Y_{a+1}] = X6
for a = s0, s0+2, ..., n-7, and the family's bullet.  The tail is the only
part that depends on m: going from m to m+1 adds the two basis vectors
Y_{n-5}, Y_{n-4} and the one bracket [Y_{n-5}, Y_{n-4}] = X6.

A handful of entries required typographical repair; every such repair is
recorded in ERRATA and reported by errata(i).  Family 61 is a full
reconstruction (no bullet is printed for it) and is flagged so dependent
checks can be reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidDimension, MissingParameter
from .lie import LieAlgebra, from_bracket_list
from .rational import ONE, rat, rat_str
from .tables import RECONSTRUCTED_NOTE
from .template import adapted_labels

ALPHA_FAMILIES = (7, 66)
DEFAULT_ALPHAS = (rat(1), rat(2), rat(-1), rat(1, 2))


def _idx(label):
    """'X5' -> 4, 'Y3' -> 7 (0-based with the X block first)."""
    kind, num = label[0], int(label[1:])
    return num - 1 if kind == "X" else 5 + num


_CHAIN = [("X1", f"X{j}", [(f"X{j + 1}", 1)]) for j in (2, 3, 4, 5)]


def _ypairs(s0, s1):
    """[Y_a, Y_{a+1}] = X6 for a = s0, s0+2, ..., s1."""
    return [(f"Y{a}", f"Y{a + 1}", [("X6", 1)]) for a in range(s0, s1 + 1, 2)]


# -- common bracket blocks ---------------------------------------------------
# Bracket lists that several blocks share.

_B4_54 = [
    ("X5", "X2", [("Y1", 1)]),
    ("X3", "X4", [("Y1", 1)]),
    ("X3", "X2", [("Y2", 1)]),
    ("Y3", "X3", [("X6", 1)]),
    ("Y3", "X2", [("X5", 1)]),
]
# also the head of blocks 24-25 and 79-80
_B26_29_81_85 = [("X5", "X2", [("X6", 1)]), ("X3", "X4", [("X6", 1)])]
_B37_44 = [("Y1", f"X{j}", [(f"X{j + 2}", 1)]) for j in (2, 3, 4)]
_B30_36_87_92 = _B37_44 + [("Y2", f"X{j}", [(f"X{j + 3}", 1)]) for j in (2, 3)]

# (families, m_min, first Y of the Heisenberg tail, fixed brackets); `build`
# appends the tail [Y_a, Y_{a+1}] = X6 for a = s0, s0+2, ..., n-7
_BLOCKS = [
    (range(1, 4), 4, 3, [("X5", "X2", [("Y1", 1)]), ("X3", "X4", [("Y1", 1)])]),
    (range(4, 5), 5, 3, _B4_54),
    (range(5, 20), 4, 3, []),
    (range(20, 24), 5, 5, [
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
        ("Y3", "X2", [("X6", 1)]),
        ("Y2", "Y4", [("X6", 1)]),
    ]),
    (range(24, 26), 4, 3, _B26_29_81_85 + [
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ]),
    (range(26, 28), 4, 1, _B26_29_81_85),
    (range(28, 30), 3, 1, _B26_29_81_85),
    (range(30, 37), 5, 5, _B30_36_87_92),
    (range(37, 42), 4, 1, _B37_44),
    (range(42, 45), 4, 3, _B37_44),
    (range(45, 47), 4, 3, [
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ]),
    (range(47, 51), 4, 1, [("Y1", "X3", [("X6", 1)]), ("Y1", "X2", [("X5", 1)])]),
    (range(51, 54), 3, 1, []),
    (range(54, 55), 4, 4, _B4_54),
    (range(55, 62), 4, 2, [("Y2", "X3", [("X6", 1)]), ("Y2", "X2", [("X5", 1)])]),
    (range(62, 75), 3, 2, []),
    (range(75, 79), 4, 4, [
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
        ("Y3", "X2", [("X6", 1)]),
    ]),
    (range(79, 81), 4, 4, _B26_29_81_85 + [
        ("Y1", "X2", [("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X6", 1)]),
        ("Y1", "Y3", [("X6", 1)]),
    ]),
    (range(81, 86), 3, 2, _B26_29_81_85),
    (range(86, 87), 5, 6, _B30_36_87_92 + [
        ("Y3", "X2", [("X6", 1)]),
        ("Y1", "Y4", [("X6", 1)]),
        ("Y2", "Y5", [("X6", 1)]),
    ]),
    (range(87, 93), 4, 4, _B30_36_87_92),
    (range(93, 96), 3, 2, [("Y1", "X3", [("X5", 1)]), ("Y1", "X4", [("X6", 1)])]),
    (range(96, 98), 4, 4, [
        ("Y1", "X2", [("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X6", 1)]),
        ("Y1", "Y3", [("X6", 1)]),
    ]),
    (range(98, 104), 3, 2, []),
]


# -- bullet completions ------------------------------------------------------
# 'a' stands for the family parameter alpha.

_BULLETS = {
    1: [("X3", "X2", [("Y2", 1)]), ("Y2", "X3", [("X6", 1)]), ("Y2", "X2", [("X5", 1)])],
    2: [("X3", "X2", [("Y2", 1)])],
    3: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("Y2", 1), ("X5", 1)])],
    4: [],
    5: [
        ("X5", "X2", [("Y1", 1)]),
        ("X3", "X4", [("Y1", 1)]),
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
    ],
    6: [
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1), ("X6", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    7: [
        ("X4", "X2", [("X6", "a")]),
        ("X3", "X2", [("Y1", 1), ("X5", "a")]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1), ("X6", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    8: [
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    9: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    10: [
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X2", [("X6", 1)]),
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
    ],
    11: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X2", [("X6", 1)]),
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
    ],
    12: [
        ("X3", "X2", [("Y1", 1)]),
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
    ],
    13: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
    ],
    14: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
    ],
    15: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
        ("Y2", "X3", [("X6", 1)]),
        ("Y2", "X2", [("X5", 1)]),
    ],
    16: [("X3", "X2", [("Y1", 1)]), ("Y2", "X2", [("X6", 1)])],
    17: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    18: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    19: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    20: [("X3", "X2", [("Y1", 1)])],
    21: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
    ],
    22: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
    ],
    23: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("Y1", 1), ("X5", 1)])],
    24: [],
    25: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("X5", 1)])],
    26: [("Y1", "X3", [("X6", 1)]), ("Y1", "X2", [("X5", 1)])],
    27: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
    ],
    28: [],
    29: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("X5", 1)])],
    30: [("Y3", "X2", [("X6", 1)]), ("Y1", "Y4", [("X6", 1)])],
    31: [
        ("Y3", "X2", [("X6", 1)]),
        ("Y1", "Y4", [("X6", 1)]),
        ("Y2", "Y4", [("X6", 1)]),
    ],
    32: [
        ("Y3", "X2", [("X6", 1)]),
        ("Y1", "Y4", [("X6", 1)]),
        ("Y2", "Y3", [("X6", 1)]),
    ],
    33: [
        ("Y3", "X2", [("X6", 1)]),
        ("Y1", "Y4", [("X6", 1)]),
        ("Y2", "Y3", [("X6", 1)]),
        ("Y2", "Y4", [("X6", 1)]),
    ],
    34: [("Y3", "X2", [("X6", 1)]), ("Y2", "Y4", [("X6", 1)])],
    35: [
        ("Y3", "X2", [("X6", 1)]),
        ("Y1", "Y3", [("X6", 1)]),
        ("Y2", "Y4", [("X6", 1)]),
    ],
    36: [("Y1", "Y3", [("X6", 1)]), ("Y2", "Y4", [("X6", 1)])],
    37: [("Y2", "X3", [("X6", 1)]), ("Y2", "X2", [("X5", 1)])],
    38: [("Y2", "X2", [("X6", 1)])],
    39: [("X3", "X2", [("X6", 1)]), ("Y2", "X2", [("X6", 1)])],
    40: [],
    41: [("X3", "X2", [("X6", 1)])],
    42: [("Y2", "X3", [("X6", 1)]), ("Y2", "X2", [("X5", 1)])],
    43: [("Y2", "X2", [("X6", 1)])],
    44: [("X3", "X2", [("X6", 1)]), ("Y2", "X2", [("X6", 1)])],
    45: [],
    46: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("X5", 1)])],
    47: [("Y2", "X2", [("X6", 1)])],
    48: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
        ("Y2", "X2", [("X6", 1)]),
    ],
    49: [],
    50: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("X5", 1)])],
    51: [],
    52: [("X3", "X2", [("X6", 1)])],
    53: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("X5", 1)])],
    54: [],
    55: [("X5", "X2", [("Y1", 1)]), ("X3", "X4", [("Y1", 1)])],
    56: [("X3", "X2", [("Y1", 1)]), ("Y1", "X2", [("X6", 1)])],
    57: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X2", [("X6", 1)]),
    ],
    58: [("X3", "X2", [("Y1", 1)])],
    59: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
    ],
    60: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
    ],
    61: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("Y1", 1), ("X5", 1)])],
    62: [
        ("X5", "X2", [("Y1", 1)]),
        ("X3", "X4", [("Y1", 1)]),
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
    ],
    63: [
        ("X5", "X2", [("Y1", 1)]),
        ("X3", "X4", [("Y1", 1)]),
        ("X3", "X2", [("X6", 1)]),
    ],
    64: [("X5", "X2", [("Y1", 1)]), ("X3", "X4", [("Y1", 1)])],
    65: [
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1), ("X6", 1)]),
    ],
    66: [
        ("X4", "X2", [("X6", "a")]),
        ("X3", "X2", [("Y1", 1), ("X5", "a")]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1), ("X6", 1)]),
    ],
    67: [
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
    ],
    68: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
    ],
    69: [("X3", "X2", [("Y1", 1)]), ("Y1", "X2", [("X6", 1)])],
    70: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
        ("Y1", "X2", [("X6", 1)]),
    ],
    71: [("X3", "X2", [("Y1", 1)])],
    72: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
    ],
    73: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
    ],
    74: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("Y1", 1), ("X5", 1)])],
    75: [("X3", "X2", [("Y1", 1)])],
    76: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1)]),
    ],
    77: [
        ("X5", "X2", [("X6", 1)]),
        ("X3", "X4", [("X6", 1)]),
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("Y1", 1), ("X5", 1)]),
    ],
    78: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("Y1", 1), ("X5", 1)])],
    79: [],
    80: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("X5", 1)])],
    81: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1), ("X6", 1)]),
    ],
    82: [("Y1", "X3", [("X6", 1)]), ("Y1", "X2", [("X5", 1), ("X6", 1)])],
    83: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
    ],
    84: [("Y1", "X2", [("X6", 1)])],
    85: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
        ("Y1", "X2", [("X6", 1)]),
    ],
    86: [],
    87: [("Y3", "X2", [("X6", 1)]), ("Y2", "Y3", [("X6", 1)])],
    88: [("Y3", "X2", [("X6", 1)])],
    89: [("Y3", "X2", [("X6", 1)]), ("Y1", "Y2", [("X6", 1)])],
    90: [("Y3", "X2", [("X6", 1)]), ("Y1", "Y3", [("X6", 1)])],
    91: [("Y1", "Y3", [("X6", 1)])],
    92: [("Y2", "Y3", [("X6", 1)])],
    93: [("Y1", "X2", [("X4", 1), ("X6", 1)])],
    94: [("Y1", "X2", [("X4", 1)])],
    95: [("Y1", "X2", [("X4", 1)]), ("X3", "X2", [("X6", 1)])],
    96: [],
    97: [("X4", "X2", [("X6", 1)]), ("X3", "X2", [("X5", 1)])],
    98: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
        ("Y1", "X3", [("X6", 1)]),
        ("Y1", "X2", [("X5", 1)]),
    ],
    99: [("Y1", "X3", [("X6", 1)]), ("Y1", "X2", [("X5", 1)])],
    100: [("Y1", "X3", [("X6", 1)]), ("Y1", "X2", [("X5", 1), ("X6", 1)])],
    101: [("Y1", "X2", [("X6", 1)])],
    102: [
        ("X4", "X2", [("X6", 1)]),
        ("X3", "X2", [("X5", 1)]),
        ("Y1", "X2", [("X6", 1)]),
    ],
    103: [("X3", "X2", [("X6", 1)]), ("Y1", "X2", [("X6", 1)])],
}

# (families, note): each note is written once for every family it covers
_ERRATA_NOTES = [
    ((26, 27), "common block for {26, 27} is typeset with a stray line break; "
               "read as the three displayed bracket lines"),
    (range(30, 37), "Heisenberg tail upper bound corrected from t <= m-3 to t <= m-4 "
                    "(the printed bound references Y indices beyond the basis)"),
    ((45, 46), "common block for {45, 46} prints the chain as X_{j+2}; corrected "
               "to X_{j+1} (as printed, X7 would be referenced)"),
    ((61,), "no bullet is printed for family 61; law reconstructed as the "
            "common block plus [X4,X2]=X6, [X3,X2]=Y1+X5 (the pattern of "
            "family 74), consistent with the structural table row"),
    ((81,), "bullet repaired to include [X4,X2]=X6, [X3,X2]=X5: the printed "
            "bullet yields a non-characteristically-nilpotent law of "
            "derivation dimension 2m^2-7m+14, contradicting three "
            "independent claims (the char-nilpotency classification, the "
            "derivation-dimension table, and the dimension-10 derivation "
            "algebra example); the repaired law satisfies all three"),
    ((82,), "bullet repaired to [Y1,X3]=X6, [Y1,X2]=X5+X6 (the bullet "
            "printed under 81): this law has derivation dimension "
            "2m^2-7m+14 as tabulated for 82; the bullet printed under 82 "
            "describes a class (derivation dimension 2m^2-7m+15) that "
            "appears nowhere in the tables"),
    ((69,), "second bracket of bullet 69 is printed with superscript 68; "
            "encoded as part of family 69"),
    ((87,), "second bracket of bullet 87 is printed with an even-dimension "
            "subscript; encoded as the odd family 87"),
]
ERRATA = {}
for _fams, _note in _ERRATA_NOTES:
    for _i in _fams:
        ERRATA.setdefault(_i, []).append(_note)

# The families whose encoded law is reconstructed or repaired; the notes say how.
RECONSTRUCTED = frozenset(RECONSTRUCTED_NOTE)


@dataclass(frozen=True)
class CatalogFamily:
    index: int
    parity: str            # "even" -> n = 2m, "odd" -> n = 2m+1
    m_min: int
    needs_alpha: bool
    tail_start: int        # s0 of the Heisenberg tail [Y_a, Y_{a+1}] = X6
    block: list = field(repr=False, default_factory=list)
    bullet: list = field(repr=False, default_factory=list)

    def dimension(self, m):
        return 2 * m if self.parity == "even" else 2 * m + 1


def _families():
    out = {}
    for rng, m_min, tail_start, block in _BLOCKS:
        for i in rng:
            out[i] = CatalogFamily(
                index=i,
                parity="even" if i <= 53 else "odd",
                m_min=m_min,
                needs_alpha=i in ALPHA_FAMILIES,
                tail_start=tail_start,
                block=block,
                bullet=_BULLETS[i],
            )
    return out


FAMILIES = _families()


def errata(i):
    """Documented deviations from the printed text for family i."""
    if i not in FAMILIES:
        raise InvalidDimension(f"no family {i}")
    return list(ERRATA.get(i, []))


def build(i, m, alpha=None) -> LieAlgebra:
    """Instantiate family i at parameter m (dimension 2m or 2m+1)."""
    if i not in FAMILIES:
        raise InvalidDimension(f"no family {i}")
    fam = FAMILIES[i]
    if m < fam.m_min:
        raise InvalidDimension(
            f"family {i} requires m >= {fam.m_min}, got m = {m}"
        )
    if fam.needs_alpha:
        if alpha is None:
            raise MissingParameter(f"family {i} requires a parameter alpha")
        alpha = rat(alpha)
        if alpha == 0:
            raise MissingParameter(f"family {i} requires alpha != 0")
    elif alpha is not None:
        raise MissingParameter(f"family {i} takes no alpha parameter")

    n = fam.dimension(m)
    entries = []
    for lhs, rhs, targets in _CHAIN + fam.block + _ypairs(fam.tail_start, n - 7) + fam.bullet:
        a, b = _idx(lhs), _idx(rhs)
        if max(a, b) >= n:
            raise InvalidDimension(
                f"family {i} at m = {m}: bracket ({lhs}, {rhs}) out of range"
            )
        entries.append((a, b, {_idx(tgt): alpha if c == "a" else c for tgt, c in targets}))

    meta = {
        "family": i,
        "m": m,
        "n": n,
        "defining_basis": True,
        "name": instance_label(i, n, alpha),
    }
    if fam.needs_alpha:
        meta["alpha"] = alpha
    return from_bracket_list(n, entries, labels=adapted_labels(n), meta=meta)


def instance_label(i, n, alpha=None):
    base = f"g{n}^{i}"
    return base if alpha is None else f"{base},a={rat_str(alpha)}"


def instance_id(i, n, alpha=None):
    if alpha is None:
        return f"mu_{n}_{i}"
    a = rat(alpha)
    return f"mu_{n}_{i}_alpha_{a.numerator}_{a.denominator}"


@dataclass(frozen=True)
class CatalogInstance:
    family: int
    n: int
    m: int
    alpha: object
    algebra: LieAlgebra

    @property
    def id(self):
        return instance_id(self.family, self.n, self.alpha)

    @property
    def label(self):
        return instance_label(self.family, self.n, self.alpha)

    @property
    def reconstructed(self):
        return self.family in RECONSTRUCTED

    def sort_key(self):
        a = rat(self.alpha) if self.alpha is not None else rat(0)
        return (self.n, self.family, a)


def families_at(n):
    """Family indices whose parity and minimum m admit dimension n."""
    if n < 7:
        return []
    parity = "even" if n % 2 == 0 else "odd"
    m = n // 2
    return [
        i
        for i, fam in sorted(FAMILIES.items())
        if fam.parity == parity and m >= fam.m_min
    ]


def enumerate_instances(n, alphas=DEFAULT_ALPHAS):
    """All catalog instances at dimension n, alpha families once per sample."""
    out = []
    m = n // 2
    for i in families_at(n):
        if FAMILIES[i].needs_alpha:
            for a in alphas:
                out.append(CatalogInstance(i, n, m, rat(a), build(i, m, a)))
        else:
            out.append(CatalogInstance(i, n, m, None, build(i, m)))
    out.sort(key=CatalogInstance.sort_key)
    return out


# -- printed derivation-algebra presentations used by the tower checks -------

def _algebra_from_z_brackets(dim, spec, name):
    entries = [(i - 1, j - 1, {k - 1: c for k, c in targets}) for i, j, targets in spec]
    labels = tuple(f"Z{i}" for i in range(1, dim + 1))
    return from_bracket_list(dim, entries, labels=labels, meta={"name": name})


def derivation_presentation_g8_6() -> LieAlgebra:
    """The printed 13-dimensional presentation of Der(g8^6)."""
    spec = [
        (1, 2, [(3, 1)]),
        (2, 3, [(6, -1)]),
        (3, 10, [(5, -1)]),
        (1, 3, [(4, 1)]),
        (2, 6, [(5, -1)]),
        (3, 13, [(5, -1)]),
        (1, 4, [(5, 1)]),
        (2, 9, [(6, -1)]),
        (8, 11, [(5, -1)]),
        (1, 10, [(6, -1)]),
        (2, 10, [(6, -1)]),
        (8, 12, [(7, 1)]),
        (1, 11, [(7, -1)]),
        (2, 12, [(5, 1)]),
        (9, 10, [(5, 1)]),
        (2, 13, [(4, -1)]),
    ]
    return _algebra_from_z_brackets(13, spec, "Der(g8^6) presentation")


def derivation_presentation_g7_81() -> LieAlgebra:
    """The printed 10-dimensional presentation of Der(g7^81)."""
    spec = [
        (1, 2, [(3, 1)]),
        (2, 6, [(5, -1)]),
        (7, 8, [(5, 2), (6, -2), (10, 2)]),
        (1, 3, [(4, 1)]),
        (2, 8, [(6, -1)]),
        (7, 9, [(5, 1), (6, -2), (10, 2)]),
        (1, 4, [(5, 1)]),
        (2, 9, [(4, -1), (6, -2)]),
        (8, 9, [(6, 2), (10, -2)]),
        (1, 7, [(4, -1)]),
        (2, 10, [(5, -1)]),
        (1, 8, [(6, -1)]),
        (3, 8, [(5, -1)]),
        (3, 9, [(5, -1)]),
    ]
    return _algebra_from_z_brackets(10, spec, "Der(g7^81) presentation")


def chain_with_abelian(chain_len, n, name=None):
    """Filiform chain on the first chain_len coordinates, abelian rest.

    ad(X1) has one Jordan block of size chain_len - 1, so the characteristic
    sequence is (chain_len - 1, 1, ..., 1).
    """
    if not 2 <= chain_len <= n:
        raise InvalidDimension("need 2 <= chain_len <= n")
    brackets = {
        (0, j): {j + 1: ONE} for j in range(1, chain_len - 1)
    }
    return LieAlgebra(
        n, brackets, meta={"name": name or f"chain{chain_len}+abelian{n - chain_len}"}
    )
