"""Verification suites: each builds the relevant exact objects, runs a
fixed list of named checks, and returns a Report whose JSON form is
byte-identical across runs.

Every value compared is an exact cyclotomic number or integer; no check
uses floating point.  A suite passes when no check fails (skipped checks,
used when a configuration is out of the size bound, do not count).
"""

from __future__ import annotations

from .cyclo import ZERO
from .ffield import MultChar, NormOneChar
from .grpcore import (
    SizeBoundError,
    conjugacy_classes,
    inner_product,
    require_order,
    restrict,
    trivial_character,
)
from .rankone import (
    ORDERS,
    UnitarySpec,
    build_gl2,
    build_u2,
    encode,
    mat_mul,
    norm_class_map,
    tau_classes,
    tau_permutation,
)
from .cuspchar import (
    IdentificationError,
    family_context,
    gl2_cuspidal,
    sigma0,
    sigma0_expected_parameter,
    sl2_cuspidal,
    sl2_reducible_formula,
    u2_cuspidal,
)
from .report import Check, Report, _bulk_check

# The heis names the heis suite calls.  ``heis`` is imported on the first
# heis-suite call (or the first access from outside, as ``verify.NAME``), so
# the other suites never load it; a name already bound here, say by a test's
# monkeypatch, is kept.
_HEIS_NAMES = (
    "extraspecial_group",
    "lemma_H_verify",
    "require_rank_one",
    "torus_action_consequences",
    "torus_realization",
)


def _load_heis():
    from . import heis

    for name in _HEIS_NAMES:
        globals().setdefault(name, getattr(heis, name))


def __getattr__(name):
    if name not in _HEIS_NAMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    _load_heis()
    return globals()[name]


# -- level-0 base change ----------------------------------------------


def suite_level0_basechange(q: int = 3) -> Report:
    """The quadratic base-change dictionary on elliptic points: the lift of
    a cuspidal with regular norm-one parameter theta is the cuspidal of the
    general linear group with parameter theta o (x -> x^(1-q)), and its
    character at an embedded elliptic point x equals the source character
    at x^(1-q) whenever that point is regular."""
    ctx_gl = family_context("gl2", q)
    ctx_sl = family_context("sl2", q)
    F, L = ctx_gl.k0, ctx_gl.l
    emb = L.embedding(F)
    minus_one = emb[F.neg(F.one)]
    regular_s = [s for s in range(q + 1) if (2 * s) % (q + 1) != 0]

    transport_failures = []
    identity_failures = []
    boundary_pairs = 0
    boundary_agree = 0
    checked_points = 0
    generator_checked = 0
    generator_failures = []

    for s in regular_s:
        theta = NormOneChar(L, F, s)
        t = (-s * (q - 1)) % (L.q - 1)
        theta_tilde = MultChar(L, t)
        for x in L.nonzero():
            if theta_tilde(x) != theta(L.pow(x, 1 - q)):
                transport_failures.append((s, x))
        lam = sl2_cuspidal(theta)
        lam_tilde = gl2_cuspidal(theta_tilde)
        for x, ci in ctx_gl.elliptic.items():
            u = L.pow(x, 1 - q)
            lifted = lam_tilde.on_class(ci)
            if u == minus_one:
                boundary_pairs += 1
                if lifted == lam.on_class(ctx_sl.central[F.neg(F.one)]):
                    boundary_agree += 1
                continue
            checked_points += 1
            if lifted != lam.on_class(ctx_sl.elliptic[u]):
                identity_failures.append((s, x))
        if theta_tilde.order() != 4:
            generator_checked += 1
            gen_value = lam_tilde.on_class(ctx_gl.elliptic[L.generator])
            if gen_value.is_zero():
                generator_failures.append(s)

    checks = [
        _bulk_check(
            "parameter_transport",
            transport_failures,
            "lifted parameter agrees with theta o (x -> x^(1-q)) at all %d x %d points"
            % (len(regular_s), L.q - 1),
        ),
        _bulk_check(
            "basechange_identity",
            identity_failures,
            "lifted character matches source at all %d regular elliptic points"
            % checked_points,
        ),
        Check(
            name="boundary_minus_one_recorded",
            status="pass",
            details="points with x^(1-q) = -1: %d; naive identity held at %d "
            "of them (recorded, not asserted)" % (boundary_pairs, boundary_agree),
        ),
        _bulk_check(
            "generator_trace_nonzero",
            generator_failures,
            "lifted character is nonzero at the generator class for all %d "
            "parameters of order != 4 (out of %d regular)"
            % (generator_checked, len(regular_s)),
        ),
    ]
    return Report(suite="level0_basechange", params={"q": q}, checks=checks)


# -- twisted-conjugacy norm bijection ---------------------------------


def suite_norm_bijection(q: int = 3) -> Report:
    """The norm g -> g tau(g) induces a bijection from twisted-conjugacy
    classes of GL2 over the quadratic extension onto the ordinary classes
    meeting the unitary group."""
    try:
        require_order("GL2", ORDERS["GL2"](q * q))  # before any field is built
    except SizeBoundError as e:
        return Report(
            suite="norm_bijection",
            params={"q": q},
            checks=[Check(name="size_bound", status="skipped", details=str(e))],
        )
    spec = UnitarySpec(q)
    G = build_gl2(spec.field)
    classes = conjugacy_classes(G)
    partition = tau_classes(G, spec)
    images = norm_class_map(G, spec, partition)
    u2_classes = sorted(
        {classes.class_of[G.index[g]] for g in build_u2(spec).elements}
    )

    well_failures = []
    T = tau_permutation(G, spec)
    for oi, orbit in enumerate(partition):
        target = images[oi]
        for member, norm in zip(orbit, G.products(orbit, map(T.__getitem__, orbit))):
            if classes.class_of[norm] != target:
                well_failures.append((oi, member))
                break

    inj_failures = []
    seen: dict[int, int] = {}
    for oi, target in enumerate(images):
        if target in seen:
            inj_failures.append((seen[target], oi, target))
        else:
            seen[target] = oi

    surj_failures = []
    image_set = sorted(set(images))
    if image_set != u2_classes:
        surj_failures.append(
            ("image", image_set, "unitary_classes", u2_classes)
        )

    checks = [
        _bulk_check(
            "well_defined",
            well_failures,
            "norm of every member of each of the %d twisted classes lands in "
            "one ordinary class" % len(partition),
        ),
        _bulk_check(
            "injective",
            inj_failures,
            "the %d twisted classes have pairwise distinct norm classes"
            % len(partition),
        ),
        _bulk_check(
            "surjective_onto_unitary_classes",
            surj_failures,
            "norm image equals the %d ordinary classes meeting the unitary group"
            % len(u2_classes),
        ),
        Check(
            name="count_matches",
            status="pass" if len(partition) == len(u2_classes) else "fail",
            details="twisted classes: %d, classes meeting the unitary group: %d"
            % (len(partition), len(u2_classes)),
        ),
    ]
    return Report(suite="norm_bijection", params={"q": q}, checks=checks)


# -- restriction to the determinant-one subgroup ----------------------


def _cuspidal_rows(ctx) -> list[int]:
    """Oracle rows with no nonzero vector fixed by the upper unipotent
    subgroup N: q dim chi^N = sum_b chi(n(b)) = 0.  The q-1 nontrivial n(b)
    fall evenly into the listed unipotent classes of z = 1."""
    one = ctx.k0.one
    n_classes = [ci for (z, _b), ci in ctx.unipotent.items() if z == one]
    share = (ctx.q - 1) // len(n_classes)
    return [
        i
        for i, chi in enumerate(ctx.table)
        if (chi.degree + share * sum((chi.on_class(ci) for ci in n_classes), ZERO)).is_zero()
    ]


def suite_restriction_sl2(q: int = 3) -> Report:
    """Restriction of general-linear cuspidals to the determinant-one
    subgroup: irreducible when the norm-one parameter stays regular, and a
    two-member packet (mult-one components, swapped by conjugation with
    diag(1, nu)) when the parameter has order two."""
    ctx_gl = family_context("gl2", q)
    ctx_sl = family_context("sl2", q)
    F, L = ctx_gl.k0, ctx_gl.l
    sl_group = ctx_sl.group
    gl_rows = _cuspidal_rows(ctx_gl)
    sl_cuspidal = _cuspidal_rows(ctx_sl)

    count_failures = []
    if len(gl_rows) != q * (q - 1) // 2:
        count_failures.append(("count", len(gl_rows)))
    for i in gl_rows:
        if ctx_gl.table[i].degree != q - 1:
            count_failures.append(("degree", i))

    # Decompose each restricted cuspidal against the oracle rows.
    decomposition = {}
    decomp_failures = []
    for i in gl_rows:
        res = restrict(ctx_gl.table[i], sl_group)
        mults = []
        for j, chi in enumerate(ctx_sl.table):
            try:
                m = inner_product(res, chi).as_integer()
            except ValueError:
                decomp_failures.append(("non_integer_multiplicity", i, j))
                m = -1
            mults.append(m)
        decomposition[i] = mults

    norm_failures = []
    two_rows, one_rows = [], []
    for i, mults in decomposition.items():
        norm = sum(m * m for m in mults)
        if norm == 1:
            one_rows.append(i)
        elif norm == 2:
            two_rows.append(i)
        else:
            norm_failures.append((i, norm))
    if len(two_rows) != (q - 1) // 2:
        norm_failures.append(("two_component_count", len(two_rows)))

    nu = F.smallest_nonsquare()
    h = (F.one, F.zero, F.zero, nu)
    h_inv = (F.one, F.zero, F.zero, F.inv(nu))
    sl_classes = ctx_sl.classes

    def conj_class_by_h(ci: int) -> int:
        g = sl_group.decode(sl_group.key(sl_classes.representatives[ci]))
        moved = mat_mul(F, mat_mul(F, h, g), h_inv)
        return sl_classes.class_of[sl_group.index[encode(F, moved)]]

    two_failures = []
    for i in two_rows:
        comps = [j for j, m in enumerate(decomposition[i]) if m != 0]
        mults = [decomposition[i][j] for j in comps]
        if len(comps) != 2 or mults != [1, 1]:
            two_failures.append((i, "components", comps, mults))
            continue
        j1, j2 = comps
        chi1, chi2 = ctx_sl.table[j1], ctx_sl.table[j2]
        if chi1.degree != chi2.degree or 2 * chi1.degree != (q - 1):
            two_failures.append((i, "degrees"))
        if not (j1 in sl_cuspidal and j2 in sl_cuspidal):
            two_failures.append((i, "component_not_cuspidal"))
        swapped = all(
            chi2.on_class(ci) == chi1.on_class(conj_class_by_h(ci))
            for ci in range(len(sl_classes))
        )
        if not swapped:
            two_failures.append((i, "not_swapped_by_diag(1,nu)"))

    one_failures = []
    for i in one_rows:
        comps = [j for j, m in enumerate(decomposition[i]) if m != 0]
        if len(comps) != 1 or decomposition[i][comps[0]] != 1:
            one_failures.append((i, "components", comps))
        elif comps[0] not in sl_cuspidal:
            one_failures.append((i, "component_not_cuspidal"))

    formula_failures = []
    for cand in ctx_gl.cuspidal_parameters:
        res = restrict(gl2_cuspidal(cand), sl_group)
        theta = NormOneChar(L, F, cand.t % (q + 1))
        if theta.is_regular():
            expected = sl2_cuspidal(theta)
        else:
            expected = sl2_reducible_formula(theta)
        if res != expected:
            formula_failures.append(cand.t)

    trivial_ok = (
        restrict(trivial_character(ctx_gl.group), sl_group)
        == trivial_character(sl_group)
    )

    checks = [
        _bulk_check(
            "oracle_cuspidal_count",
            count_failures,
            "%d oracle cuspidals of degree q-1 = %d found by the "
            "unipotent-fixed-vector test" % (len(gl_rows), q - 1),
        ),
        _bulk_check(
            "restriction_norm_dichotomy",
            norm_failures + decomp_failures,
            "each restriction has norm 1 or 2; %d of %d split in two"
            % (len(two_rows), len(gl_rows)),
        ),
        _bulk_check(
            "two_component_structure",
            two_failures,
            "split restrictions: two inequivalent mult-one cuspidal components "
            "of degree (q-1)/2, swapped by conjugation with diag(1, nu)",
        ),
        _bulk_check(
            "single_component_structure",
            one_failures,
            "irreducible restrictions land on a single cuspidal row with "
            "multiplicity one",
        ),
        _bulk_check(
            "restriction_matches_formula",
            formula_failures,
            "restricted formula equals the norm-one formula (regular branch) "
            "or the order-two packet sum, for all %d canonical parameters"
            % len(ctx_gl.cuspidal_parameters),
        ),
        Check(
            name="trivial_character_lane",
            status="pass" if trivial_ok else "fail",
            details="restriction of the trivial character is the trivial character",
        ),
    ]
    return Report(suite="restriction_sl2", params={"q": q}, checks=checks)


# -- endoscopic transfer ----------------------------------------------


def suite_endoscopic_finite(q: int = 3) -> Report:
    """For every regular pair of norm-one parameters and every choice of
    extensions to the quadratic extension's multiplicative group, the
    transfer class function is an irreducible cuspidal whose parameter is
    Theta1 * (Theta2 o gamma); across extension choices the identified
    parameter's restriction to the norm-one subgroup is constant up to
    inversion.

    sigma0 depends on (theta1, theta2, Omega = Theta1 * Theta2) only, and
    Omega's exponent s1 + s2 + (q+1)(j1 + j2) takes q - 1 values over the
    (q-1)^2 extension choices of a pair: each distinct transfer is built,
    identified and normed once, and every combination is still checked
    against its own expected parameter."""
    ctx = family_context("gl2", q)
    F, L = ctx.k0, ctx.l
    n1 = q + 1

    u2_failures = []
    swap_failures = []
    irr_failures = []
    ident_failures = []
    degree_failures = []
    invariant_failures = []
    combos = 0

    pairs = [(s1, s2) for s1 in range(n1) for s2 in range(s1 + 1, n1)]
    for s1, s2 in pairs:
        theta1 = NormOneChar(L, F, s1)
        theta2 = NormOneChar(L, F, s2)
        try:
            row = u2_cuspidal(theta1, theta2)
            if row.degree != q - 1:
                u2_failures.append((s1, s2, "degree"))
            if u2_cuspidal(theta2, theta1) != row:
                swap_failures.append((s1, s2))
        except IdentificationError as e:
            u2_failures.append((s1, s2, str(e)))

        seen_invariants = set()
        transfers = {}  # Omega's exponent -> (irreducible, ident, degree q-1)
        for j1 in range(q - 1):
            for j2 in range(q - 1):
                combos += 1
                Theta1 = MultChar(L, s1 + n1 * j1)
                Theta2 = MultChar(L, s2 + n1 * j2)
                omega = (Theta1 * Theta2).t
                if omega not in transfers:
                    built, ident = sigma0(theta1, theta2, Theta1, Theta2)
                    transfers[omega] = (
                        inner_product(built, built) == 1,
                        ident,
                        built.degree == q - 1,
                    )
                irreducible, ident, central_degree = transfers[omega]
                if not irreducible:
                    irr_failures.append((s1, s2, j1, j2))
                if ident != sigma0_expected_parameter(Theta1, Theta2):
                    ident_failures.append((s1, s2, j1, j2, ident.t))
                if not central_degree:
                    degree_failures.append((s1, s2, j1, j2))
                seen_invariants.add(min(ident.t % n1, (-ident.t) % n1))
        expected_inv = min((s1 - s2) % n1, (s2 - s1) % n1)
        if seen_invariants != {expected_inv}:
            invariant_failures.append((s1, s2, sorted(seen_invariants)))

    checks = [
        _bulk_check(
            "u2_unique_oracle_match",
            u2_failures,
            "all %d regular pairs give a unique degree-(q-1) unitary cuspidal"
            % len(pairs),
        ),
        _bulk_check(
            "u2_swap_symmetry",
            swap_failures,
            "the unitary cuspidal is symmetric in the two parameters",
        ),
        _bulk_check(
            "sigma0_irreducible",
            irr_failures,
            "transfer class function has self inner product 1 in all %d "
            "pair x extension combinations" % combos,
        ),
        _bulk_check(
            "sigma0_identification",
            ident_failures,
            "identified parameter equals Theta1 * (Theta2 o gamma) in every "
            "combination",
        ),
        _bulk_check(
            "sigma0_central_degree",
            degree_failures,
            "transfer class function has degree q-1 = %d in every combination"
            % (q - 1),
        ),
        _bulk_check(
            "extension_choice_invariant",
            invariant_failures,
            "identified parameter's norm-one restriction, taken up to "
            "inversion, is constant across extension choices for each pair",
        ),
    ]
    return Report(suite="endoscopic_finite", params={"q": q}, checks=checks)


# -- extraspecial laboratory ------------------------------------------


DEFAULT_HEIS_TUPLES = (
    (3, 1, 2, "split"),
    (3, 1, 4, "nonsplit"),
    (5, 1, 4, "split"),
    (5, 1, 6, "nonsplit"),
    (7, 1, 8, "nonsplit"),
)


def _run_heis_tuple(tup) -> list[Check]:
    """The tuple's checks under a "p.._a.._d.._realization:" prefix, or one
    skipped check when its group exceeds the size bound (nothing is built)
    or its torus is impossible.  One torus serves both sub-reports.  The
    half-rank is checked first, so p^(2a+1) is formed only at a = 1."""
    p, a, d, realization = tup
    prefix = "p%d_a%d_d%d_%s" % (p, a, d, realization)
    require_rank_one(a)
    try:
        require_order("Heis", p ** (2 * a + 1))
    except SizeBoundError as e:
        return [Check(name="%s:size" % prefix, status="skipped", details=str(e))]
    try:
        action = torus_realization(p, d, realization)
    except ValueError as e:
        if d < 1:  # no torus of that order: a usage error, not a skip
            raise
        return [Check(name="%s:realization" % prefix, status="skipped", details=str(e))]
    subs = (
        lemma_H_verify(p, a, d, realization, action),
        torus_action_consequences(extraspecial_group(p, a), action),
    )
    checks = [c for sub in subs for c in sub.checks]
    return [Check(prefix + ":" + c.name, c.status, c.details, c.counterexample) for c in checks]


def suite_heisenberg(tuples=None) -> Report:
    """Aggregate the extraspecial-group checks (trace sign law, multiplicity
    multisets, coset support, action consequences) over a list of
    (p, a, d, realization) tuples, run one after another."""
    if tuples is None:
        tuples = DEFAULT_HEIS_TUPLES
    tuples = [tuple(t) for t in tuples]
    _load_heis()
    checks = [c for t in tuples for c in _run_heis_tuple(t)]
    return Report(
        suite="heisenberg",
        params={"tuples": [list(t) for t in tuples]},
        checks=checks,
    )


SUITES = {
    "level0_basechange": suite_level0_basechange,
    "norm_bijection": suite_norm_bijection,
    "restriction_sl2": suite_restriction_sl2,
    "endoscopic_finite": suite_endoscopic_finite,
    "heisenberg": suite_heisenberg,
}
