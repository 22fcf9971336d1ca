"""The per-row join, the oracle for ``cli._write_matrix_csv``.

``_write_matrix_csv`` formats each cell of a symmetric matrix's upper
triangle once and reuses its text for the mirror cell, a block of rows at a
time.  This function formats every cell of every row with ``repr`` and joins
each row on its own, so the tests check that the mirrored writer gives the
same bytes.
"""


def row_join_matrix_csv(path, matrix):
    """Headerless CSV, one ``repr`` per cell, rows joined one at a time."""
    with open(path, "w") as f:
        for row in matrix:
            f.write(",".join(map(repr, row.tolist())) + "\r\n")
