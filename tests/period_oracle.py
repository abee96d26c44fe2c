"""The diagram route to the period shift, kept as the independent oracle
for `sliceobs.twisted.period_shift` and its constant matrix
`sliceobs.blanchfield.period_matrix`.

The closure diagram is carried to itself by rotating one period (two
crossings).  `transport` propagates a character over the whole
presentation, moves the assignment along the induced arc permutation,
renormalizes it and reads the new character off the seed slots, then
checks every relator and the seed round trip.  It costs a propagation
per shift, where the program multiplies a row by a 4 x 4 matrix; here
the cost buys a check that shares no logic with that matrix.
"""

from sliceobs.twisted import _check_relators, propagate, seed_tuples


def period_permutation(pres):
    """The arc permutation induced by rotating the closure diagram one
    period (two crossings).  Relators are in crossing order, so relator i
    must map onto relator i+2 slot by slot; any clash means the
    presentation has no such symmetry."""
    rels = pres.relators
    k = len(rels)
    pi = {}
    for i, r in enumerate(rels):
        target = rels[(i + 2) % k]
        for x, y in zip(r, target):
            if pi.setdefault(x, y) != y:
                raise ValueError("presentation has no period symmetry")
    if (len(pi) != pres.num_generators
            or len(set(pi.values())) != len(pi)):
        raise ValueError("presentation has no period symmetry")
    return pi


def transport(pres, chi):
    """The character whose representation is the pullback of chi's under
    one period of the closure diagram, by transport along the diagram.

    The induced arc permutation sends the pulled-back exponent
    assignment to e'(g) = e(pi(g)).  A uniform conjugation (the only
    gauge freedom) renormalizes e'(1) to zero and the new character is
    read off the seed slots.  The transport is checked once: its seed
    slots must be the new character's seeds and every relator must hold
    on it.  Since each propagation step has a unique solution, that is
    exactly the condition for re-seeding the new character to reproduce
    the transport.
    """
    n = chi.n
    m = pres.num_generators
    pi = period_permutation(pres)
    e = propagate(pres, seed_tuples(chi), n)
    shifted = {g: e[pi[g]] for g in range(1, m + 1)}
    delta = tuple(-x % n for x in shifted[1])
    fixed = {g: tuple((v[i] + delta[i]) % n for i in range(3))
             for g, v in shifted.items()}
    ca, cta = fixed[4][1], fixed[4][2]
    cb, ctb = fixed[3][2], fixed[3][0]
    out = chi.__class__(n, (ca, cta, cb, ctb), chi.sign)
    if any(fixed[g] != v for g, v in seed_tuples(out).items()):
        raise ArithmeticError("transported assignment does not re-seed")
    _check_relators(pres, fixed, n)
    return out
