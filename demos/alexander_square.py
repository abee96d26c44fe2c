"""The untwisted Alexander polynomial of the family is a perfect square.

Writes the genus n-1 Seifert matrix as band rows from the band
intersection data and checks det(tA - A^T) = p_n(t)^2 for a range of n,
printing p_n itself.
"""

from sliceobs.seifert import alexander_polynomial, band_pencil, p_n


def main():
    for n in (5, 7, 11, 17, 23):
        side = len(band_pencil(n)[0])
        alex = alexander_polynomial(n).aligned()
        root = p_n(n)
        sq = (root * root).aligned()
        same = alex == sq or alex == sq.scale(-1)
        print(f"n={n}: Seifert matrix {side}x{side}, genus {n - 1}")
        print(f"  p_n coefficients: {[c for _, c in root.items()]}")
        print(f"  det(tA - A^T) == p_n^2 (up to units): {same}")


if __name__ == "__main__":
    main()
