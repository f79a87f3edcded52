"""Frozen reference values for the bundled example matrices.

Hand-checked golden data for the three matrices under tests/data/.  None
stands for -inf, matching TropicalMatrix.from_rows.  Node indices are
0-based here; only the CLI layer reports 1-based ids.
"""

# ------------------------------------------------------------- example 1
# 4x4 matrix, cycle mean 0 attained on the 2-cycle {0, 1}.

EX1_LAMBDAS = (0.0, -1.0, -2.0)
EX1_GAMMAS = (2, 1, 1)
EX1_THRESHOLD = 10

# power expansion term matrices (first term at both residues)
EX1_N1_0 = [
    [0, -1, -5, -4],
    [-1, 0, -6, -5],
    [-5, -6, -10, -9],
    [-4, -5, -9, -8],
]
EX1_N1_1 = [
    [-1, 0, -6, -5],
    [0, -1, -5, -4],
    [-6, -5, -11, -10],
    [-5, -4, -10, -9],
]
EX1_N2_0 = [
    [None, None, None, None],
    [None, None, None, None],
    [None, None, 0, -2],
    [None, None, -2, -4],
]
EX1_N3_0 = [
    [None, None, None, None],
    [None, None, None, None],
    [None, None, None, None],
    [None, None, None, 0],
]

EX1_A2 = [
    [0, -1, -5, -4],
    [-1, 0, -6, -5],
    [-5, -6, -2, -4],
    [-4, -5, -4, -4],
]
EX1_A3 = [
    [-1, 0, -6, -5],
    [0, -1, -5, -4],
    [-6, -5, -3, -5],
    [-5, -4, -5, -6],
]
EX1_A4 = [
    [0, -1, -5, -4],
    [-1, 0, -6, -5],
    [-5, -6, -4, -6],
    [-4, -5, -6, -8],
]
EX1_A10 = EX1_N1_0

# critical rows/columns of (A^2)*; the remaining entries are not pinned
EX1_STAR_ROWS01 = [[0, -1, -5, -4], [-1, 0, -6, -5]]
EX1_STAR_COLS01 = [[0, -1], [-1, 0], [-5, -6], [-4, -5]]

# Boolean S factors of the three deflation levels (edge sets; weight 0)
EX1_S_EDGES = ({(0, 1), (1, 0)}, {(2, 2)}, {(3, 3)})

# ------------------------------------------------------------- example 2
# 7x7 matrix with two components: {0..3} (cycle mean 0, critical 2-cycle
# {0, 1}) and {4, 5, 6} (cycle mean -1, critical loop at 4).

EX2_LAMBDA = 0.0
EX2_PER_COMPONENT = (0.0, -1.0)
EX2_ULT_LAMBDAS = (0.0, -1.0)
EX2_ULT_GAMMAS = (2, 1)
EX2_THRESHOLD = 9

EX2_STAR_A2 = [
    [0, -2, -5, -7, None, None, None],
    [-2, 0, -3, -7, None, None, None],
    [-7, -9, 0, -12, None, None, None],
    [-6, -8, -8, 0, None, None, None],
    [-5, -6, -6, -5, 0, -8, -6],
    [-8, -7, -8, -7, -4, 0, -8],
    [-4, -6, -7, -7, -6, -10, 0],
]

# second-level matrix of the ultimate deflation and its shifted star,
# restricted to rows/columns 4..6
EX2_A2U_ESS = [[-1, -7, -5], [-3, -6, -8], [-5, -5, -5]]
EX2_A2U_SHIFT_STAR_ESS = [[0, -6, -4], [-2, 0, -6], [-4, -4, 0]]

# essential parts of the ultimate C/R factors
EX2_C1_COL0 = [0, -2, -7, -6, -5, -8, -4]
EX2_C1_COL1 = [-2, 0, -9, -8, -6, -7, -6]
EX2_R1_ROWS01_COLS03 = [[0, -2, -5, -7], [-2, 0, -3, -7]]
EX2_C2_COL4_ROWS46 = [0, -2, -4]
EX2_R2U_ROW4_COLS46 = [0, -6, -4]

# the canonical power-expansion R at level 2 spans columns 2..6 instead
EX2_R2_POWER_ROW4_COLS26 = [-4, -3, 0, -6, -4]

EX2_POWER_LAMBDAS = (0.0, -1.0, -4.0, -5.0, -6.0, -9.0)

# ------------------------------------------------------------- example 3
# two 6x6 matrices differing in row 5: a 4-cycle {0..3} with cycle mean 1
# and a 2-cycle {4, 5} with cycle mean 0.

EX3_PER_LAMBDAS = (1.0, 0.0)
EX3_CYCLICITIES = (4, 2)
EX3_GAMMA_U = 4

# first ultimate term at exponent residue 1, for each matrix
EX3A_U1 = [
    [None, 0, None, None, None, None],
    [None, None, 0, None, None, None],
    [None, None, None, 0, None, None],
    [0, None, None, None, None, None],
    [-4, -3, -6, -5, None, None],
    [-4, -3, -6, -5, None, None],
]
EX3B_U1 = [
    [None, 0, None, None, None, None],
    [None, None, 0, None, None, None],
    [None, None, None, 0, None, None],
    [0, None, None, None, None, None],
    [None, -3, None, -5, None, None],
    [-4, None, -3, None, None, None],
]
# second term (identical for both) at residue 1, rows/columns 4..5
EX3_U2_ESS = [[None, 0], [0, None]]

# component-5 orbit values for the start vector e0 (+) e5
EX3A_SEQ_FROM_T4 = [1, 1, 1, 1, 5, 5, 5, 5, 9, 9, 9, 9]
EX3B_SEQ_FROM_T2 = [0, 0, 0, 1, 0, 4, 0, 5, 0, 8, 0, 9]

# ------------------------------------------------------------ orbit CLI
# sha256 of the stdout of `orbit --y Y [--tmax T] M` (the default-t_max
# reports run to ~18 kB): examples 3a and 3b with y = example3x, and a
# fractional-weight matrix (cycle mean 47/60, period 3, transient 3).

ORBIT_FRAC_MATRIX = "3\n0.1 0.7 *\n* -0.3 1.45\n0.2 * 0.35\n"
ORBIT_FRAC_Y = "3\n0 * -1.5\n"
ORBIT_STDOUT_SHA256 = {
    ("example3a", None):
        "7a7490434515f0719573a04781afcadf5c033efacf760cc830f8487df026c65f",
    ("example3a", 20):
        "61c989741e74207cbc1b0f16e61b6d0a6eb66e329db839866db5f979504c29af",
    ("example3b", None):
        "c4c2ae5fb7c1acf323153dca61b20fa35b093f0f22ff62cdb0e9cd0a8cb3304d",
    ("example3b", 20):
        "4305a5eaba532157cb0c595acdd8642a5263912dcac5012fd57be3f2f08d52f3",
    ("frac", None):
        "0d9b770497c79c53d59f8374c2eaa2fbf5fa29b2aa9b58c1d31857f02c874cd1",
    ("frac", 12):
        "f554236f89ea3d5ba3d5f6da3399b79ea9f20b3a0731f9753224761e2efef033",
}
