"""Transporting a character around the periodic symmetry of the diagram.

The closure diagram is carried to itself by a rotation of one period
(two crossings).  Pulling a character back along that rotation is one
constant integer matrix on its row, the same for every n; it walks the
character through an orbit of size n while the twisted polynomial stays
fixed.
"""

from sliceobs.braids import family_braid, wirtinger_of_closure
from sliceobs.metabolizers import base_characters
from sliceobs.twisted import period_shift, twisted_polynomial

N = 11
S, THETA = 23, 2


def main():
    pres = wirtinger_of_closure(family_braid(N))
    chi, _ = base_characters(N)
    base = twisted_polynomial(pres, chi, S, THETA)
    print(f"n={N}: orbit of the character {chi.row} under the period map")
    print(f"  polynomial degree {base.degree}, coeffs {list(base.coeffs)}")
    rows = [chi.row]
    for step in range(1, N + 1):
        chi = period_shift(chi)
        tp = twisted_polynomial(pres, chi, S, THETA)
        same = tp.coeffs == base.coeffs
        mark = "back to start" if chi.row == rows[0] else f"{chi.row}"
        print(f"  step {step:2d}: {mark}  polynomial unchanged: {same}")
        rows.append(chi.row)
    distinct = len(set(rows[:-1]))
    print(f"distinct characters on the orbit: {distinct} (expected {N})")


if __name__ == "__main__":
    main()
