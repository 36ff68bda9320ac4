"""Group/module bookkeeping: defaults, levels, constituents, classes."""

from collections import Counter
from dataclasses import asdict
from math import gcd, lcm

import pytest

from padicext.action import (constituents, default_aux_data, level_indices,
                             make_aux_data, pair_classes, span_profile)
from padicext.arith import closure, multiplicative_order
from padicext.census import ExtensionParams
from padicext.errors import DomainError


def test_default_aux_data_examples():
    aux = default_aux_data(ExtensionParams(2, 3, 1, 1))
    assert (aux.e_rel, aux.f_rel) == (7, 21)
    assert (aux.e_total, aux.f_total) == (7, 21)
    assert aux.level_bound == 14
    aux3 = default_aux_data(ExtensionParams(3, 2, 1, 1))
    assert (aux3.e_rel, aux3.f_rel) == (8, 8)
    assert aux3.level_bound == 12
    # the ell factor is dropped when ell | f_K
    aux_div = default_aux_data(ExtensionParams(2, 3, 1, 3))
    assert (aux_div.e_rel, aux_div.f_rel) == (7, 7)


def test_default_aux_rejects_p_equals_ell():
    with pytest.raises(DomainError):
        default_aux_data(ExtensionParams(2, 2, 1, 1, allow_p_equals_ell=True))


def test_aux_invariants_validated():
    params = ExtensionParams(2, 3, 1, 1)
    with pytest.raises(DomainError):
        make_aux_data(params, e_rel=14, f_rel=21)   # p | e_rel
    with pytest.raises(DomainError):
        make_aux_data(params, e_rel=7, f_rel=2)     # tameness broken
    aux = make_aux_data(params, e_rel=7, f_rel=3)
    assert aux.source == "user_override"


def test_level_indices():
    aux = default_aux_data(ExtensionParams(2, 3, 1, 1))
    assert level_indices(aux) == [1, 3, 5, 7, 9, 11, 13]
    aux3 = default_aux_data(ExtensionParams(3, 2, 1, 1))
    assert level_indices(aux3) == [1, 2, 4, 5, 7, 8, 10, 11]
    tiny = make_aux_data(ExtensionParams(2, 3, 1, 1), e_rel=1, f_rel=3)
    assert level_indices(tiny) == [1]


def test_constituent_dimensions_q2():
    aux = default_aux_data(ExtensionParams(2, 3, 1, 1))
    dims1 = sorted(c.dim_over_fp for c in constituents(1, aux))
    assert dims1 == [3, 9, 9]
    dims7 = sorted(c.dim_over_fp for c in constituents(7, aux))
    assert dims7 == [1, 2, 3, 3, 6, 6]


def test_constituent_dimension_law():
    for (p, ell, ek, fk) in ((2, 3, 1, 1), (3, 2, 1, 1), (2, 3, 1, 3),
                             (3, 2, 1, 2), (2, 3, 2, 2)):
        aux = default_aux_data(ExtensionParams(p, ell, ek, fk))
        for i in level_indices(aux):
            cons = constituents(i, aux)
            assert sum(c.level_dim_contribution for c in cons) == aux.f_total
            for c in cons:
                # the dimension law: lcm(r w/(r, f_K), r)
                assert c.dim_over_fp == lcm(c.r * c.w // gcd(c.r, fk), c.r)
                assert c.d == lcm(c.w, gcd(c.r, fk))
                assert c.s == c.r // gcd(c.r, fk)


def test_constituent_dimensions_q3():
    aux = default_aux_data(ExtensionParams(3, 2, 1, 1))
    dims1 = sorted(c.dim_over_fp for c in constituents(1, aux))
    assert dims1 == [2, 2, 4]
    for i in level_indices(aux):
        assert sum(c.level_dim_contribution
                   for c in constituents(i, aux)) == 8


def test_span_profile_q2():
    params = ExtensionParams(2, 3, 1, 1)
    prof = span_profile(params, default_aux_data(params))
    assert dict(prof.per_level) == {1: 3, 3: 3, 5: 3, 7: 6, 9: 3, 11: 3, 13: 3}
    assert prof.total == 24 and prof.matches_degree_exponent
    assert prof.dims_multiset() == (3, 3, 3, 3, 3, 3, 6)


def test_span_profile_q3():
    params = ExtensionParams(3, 2, 1, 1)
    prof = span_profile(params, default_aux_data(params))
    assert prof.total == 36 and prof.matches_degree_exponent


def test_pair_classes_q2():
    aux = default_aux_data(ExtensionParams(2, 3, 1, 1))
    pcs = pair_classes(aux, dim_filter=3)
    kinds = Counter((pc.s, pc.c) for pc in pcs)
    assert kinds == Counter({(1, 7): 2, (3, 7): 2})
    for pc in pcs:
        assert sum(pc.mult_by_level) == pc.global_multiplicity


def test_pair_classes_mult_scan_matches_orbit_size():
    # levels carrying a class: e_K per residue of its (p- and q-closed) t-set
    for (p, ell, ek, fk) in ((2, 3, 1, 1), (3, 2, 1, 1), (2, 3, 2, 1),
                             (2, 3, 1, 3), (3, 2, 1, 2)):
        params = ExtensionParams(p, ell, ek, fk)
        aux = default_aux_data(params)
        e = aux.e_rel
        for pc in pair_classes(aux, dim_filter=ell):
            n_levels = sum(1 for i in level_indices(aux) if i % e in pc.t_set)
            assert n_levels == ek * len(pc.t_set)
            assert pc.global_multiplicity == pc.s * ek * fk
            assert sum(pc.mult_by_level) == pc.global_multiplicity


def test_pair_classes_inertia_divisible_case():
    aux = default_aux_data(ExtensionParams(2, 3, 1, 3))
    pcs = pair_classes(aux, dim_filter=3)
    assert len(pcs) == 16
    assert all(pc.d == 3 and pc.global_multiplicity == 3 for pc in pcs)


# ---------------------------------------------------------------------------
# the per-level and per-class derivations as they stood before the one
# beta-piece table, kept as a literal reference at the larger points

REFERENCE_POINTS = ((2, 3, 1, 1), (3, 2, 1, 1), (2, 3, 1, 3), (5, 2, 1, 2),
                    (5, 3, 1, 1), (3, 5, 1, 1), (2, 7, 1, 1), (7, 3, 1, 1))


def _ref_residue_orbits(m, mult):
    seen = [False] * m
    orbits = []
    for b in range(m):
        if seen[b]:
            continue
        orbit = [b]
        seen[b] = True
        x = b * mult % m
        while x != b:
            seen[x] = True
            orbit.append(x)
            x = x * mult % m
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _ref_alpha(aux, i):
    """(alpha_order, r, s, sorted q-orbit) of level i."""
    e = aux.e_rel
    t0 = i % e
    alpha_order = e // gcd(e, t0) if t0 else 1
    r = multiplicative_order(aux.p, alpha_order)
    s = r // gcd(r, aux.f_k)
    q = pow(aux.p, aux.f_k, e) if e > 1 else 0
    orbit = [t0]
    t = t0 * q % e
    while t != t0:
        orbit.append(t)
        t = t * q % e
    assert len(orbit) == s
    return alpha_order, r, s, tuple(sorted(orbit))


def _ref_constituents(i, aux):
    p, f_k = aux.p, aux.f_k
    alpha_order, r, s, q_orbit = _ref_alpha(aux, i)
    m = aux.f_rel // s
    out = []
    for orbit in _ref_residue_orbits(m, p % m if m > 1 else 0):
        b = orbit[0]
        beta_order = m // gcd(m, b) if b else 1
        w = multiplicative_order(p, beta_order)
        assert w == len(orbit) or b == 0
        g = gcd(r, f_k)
        out.append(dict(
            level=i, alpha_exp=min(q_orbit), beta_orbit=orbit, beta_modulus=m,
            alpha_order=alpha_order, beta_order=beta_order, r=r, w=w, s=s,
            d=lcm(w, g), dim_over_fp=lcm(r * w // g, r),
            multiplicity_in_level=f_k, global_multiplicity=s * aux.e_k * f_k,
            level_dim_contribution=w * s * f_k))
    assert sum(c["level_dim_contribution"] for c in out) == aux.f_total
    return out


def _ref_pair_classes(aux):
    """(dim, t, b, c, beta_order, s, d, levels, mult_by_level) per class."""
    e, f, p, f_k = aux.e_rel, aux.f_rel, aux.p, aux.f_k
    q = pow(p, f_k, e) if e > 1 else 0
    levels = level_indices(aux)
    alpha = {t: _ref_alpha(aux, t if t else e) for t in range(e)}
    out = []
    seen = set()
    for t0 in range(e):
        alpha_order, r, s, _ = alpha[t0]
        m = f // s
        for b0 in range(m):
            if (t0, b0) in seen:
                continue
            orbit = closure((t0, b0), ((q, 1), (p, p)),
                            lambda tb, g: (tb[0] * g[0] % e, tb[1] * g[1] % m),
                            10 ** 6)
            seen.update(orbit)
            beta_order = m // gcd(m, b0) if b0 else 1
            w = multiplicative_order(p, beta_order)
            g = gcd(r, f_k)
            d = lcm(w, g)
            t_set = {t for t, _ in orbit}
            class_levels, mults = [], []
            for i in levels:
                if i % e not in t_set:
                    continue
                q_orbit = set(alpha[i % e][3])
                raw = f_k * sum(1 for (t, _) in orbit if t in q_orbit)
                assert raw % (d * s) == 0
                if raw:
                    class_levels.append(i)
                    mults.append(raw // (d * s))
            out.append((lcm(r * w // g, r), *min(orbit),
                        lcm(alpha_order, beta_order), beta_order, s, d,
                        tuple(class_levels), tuple(mults)))
    return out


@pytest.mark.parametrize("point", REFERENCE_POINTS)
def test_bookkeeping_matches_reference_derivation(point):
    params = ExtensionParams(*point)
    aux = default_aux_data(params)
    ell = params.ell
    ref_span = []
    for i in level_indices(aux):
        ref = _ref_constituents(i, aux)
        got = constituents(i, aux)
        assert [asdict(c) for c in got] == ref
        assert all(c.beta_exp == c.beta_orbit[0] for c in got)
        ref_span.append((i, sum(c["level_dim_contribution"] for c in ref
                                if c["dim_over_fp"] == ell)))
    assert span_profile(params, aux).per_level == tuple(ref_span)
    ref_classes = _ref_pair_classes(aux)
    for dim_filter in (None, ell):
        want = sorted(row[1:] for row in ref_classes
                      if dim_filter is None or row[0] == dim_filter)
        got = sorted((pc.t, pc.b, pc.c, pc.beta_order, pc.s, pc.d, pc.levels,
                      pc.mult_by_level)
                     for pc in pair_classes(aux, dim_filter=dim_filter))
        assert got == want
