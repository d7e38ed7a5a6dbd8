"""Acceptance gate: eight end-to-end checks with pinned time budgets.

Each test prints one PASS/FAIL line (bypassing capture so the verdicts
appear in any run log) and then asserts both the checked property and
its runtime budget.  The heavy sweeps run in the numpy kernels of
``polyweight._kernels``.
"""

import itertools
import time

from digit_oracle import pr_box_oracle
from polyweight import (
    ClassificationContext,
    build_gl,
    build_go_even,
    build_go_odd,
    build_gsp,
    build_levi,
    check_assumption,
    check_shift_bijection,
    enumerate_Pr,
    go_even_counterexample,
    in_Pr,
    permute_d,
    phi,
    shift_bound_a,
    simple_membership,
    validate_datum,
)
from polyweight._kernels import decompose_unique_sweep, predicate_flags_box
from polyweight.lattice import pair

BUDGETS = {1: 1.0, 2: 5.0, 3: 5.0, 4: 30.0, 5: 30.0, 6: 10.0, 7: 60.0, 8: 5.0}

# p^r values up to 4 with their unique prime factorizations
MODULUS_OF = {2: (2, 1), 3: (3, 1), 4: (2, 2)}

GL2 = build_gl(2)
GL3 = build_gl(3)
GSP4 = build_gsp(4)
GO5 = build_go_odd(5)
LEVI23 = build_levi([2, 3])


def box(n, radius):
    return itertools.product(range(-radius, radius + 1), repeat=n)


def finish(cap, number, name, start, ok, detail="", summary=""):
    elapsed = time.perf_counter() - start
    budget = BUDGETS[number]
    in_budget = elapsed < budget
    status = "PASS" if ok and in_budget else "FAIL"
    line = f"acceptance {number} {name}: {status} ({elapsed:.2f} s)"
    if summary:
        line += f" {summary}"
    if not ok:
        line += f" [{detail}]"
    if not in_budget:
        line += f" [budget {budget:.0f} s exceeded]"
    with cap.disabled():
        print(line, flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"
    assert in_budget, (
        f"criterion {number} ({name}) took {elapsed:.2f} s, "
        f"budget {budget:.0f} s"
    )


def test_criterion_1_even_orthogonal_failure_scenario(capfd):
    start = time.perf_counter()
    problems = []
    for prpow in (5, 13):
        report = go_even_counterexample(prpow)
        half, quarter = (prpow - 1) // 2, (prpow - 1) // 4
        expected = {
            "lam0": (half,) * 4 + (quarter,) * 4,
            "lam_tilde": (0, 0, 0, 0, 1, 1, -1, 1),
            "phi_lam0": (prpow - 1,),
            "phi_lam0_shifted": (-1,),
            "phi_lam_tilde": (-1,),
            "witness": None,
            "weyl_order": 192,
        }
        got = {key: getattr(report, key) for key in expected}
        if got != expected:
            problems.append(f"p^r={prpow}: {got} != {expected}")
    finish(capfd, 1, "even-orthogonal-failure-scenario", start,
           not problems, "; ".join(problems))


def test_criterion_2_general_linear_closed_form(capfd):
    start = time.perf_counter()
    problems = []
    for n in (2, 3):
        datum = build_gl(n)
        for prpow, (p, r) in MODULUS_OF.items():
            ctx = ClassificationContext(datum, p, r)
            top = prpow - 1
            for lam in box(n, 2 * prpow):
                closed = (
                    all(0 <= lam[i] - lam[i + 1] <= top for i in range(n - 1))
                    and 0 <= lam[-1] <= top
                )
                if in_Pr(lam, ctx) != closed:
                    problems.append(f"gl({n}) p^r={prpow} at {lam}")
                    break
    finish(capfd, 2, "general-linear-closed-form", start,
           not problems, "; ".join(problems))


def test_criterion_3_enumeration_count(capfd):
    start = time.perf_counter()
    problems = []
    for n in (1, 2, 3):
        datum = build_gl(n)
        for prpow, (p, r) in MODULUS_OF.items():
            ctx = ClassificationContext(datum, p, r)
            elements = enumerate_Pr(ctx)
            if len(elements) != prpow**n:
                problems.append(
                    f"gl({n}) p^r={prpow}: {len(elements)} != {prpow ** n}"
                )
            if elements != pr_box_oracle(ctx):
                problems.append(f"gl({n}) p^r={prpow}: oracle mismatch")
    finish(capfd, 3, "enumeration-count", start, not problems, "; ".join(problems))


def half_pairings(datum, radius):
    """Box weights with their halved pairings against the even coroots.

    A simple coroot with only even entries pairs evenly with every
    character, and a restricted weight pairs with it inside [0, p^r - 1].
    So a class is reachable only if each half pairing <lam, coroot> / 2
    has a residue mod p^r of at most (p^r - 1) / 2.
    """
    even = [
        cov for cov in datum.simple_coroots if all(c % 2 == 0 for c in cov)
    ]
    return [
        (lam, [pair(lam, cov) // 2 for cov in even])
        for lam in box(datum.ambient_dim, radius)
    ]


def unreachable_residues(halves, prpow):
    """The weights of ``half_pairings`` whose class has no restricted representative."""
    return [
        lam for lam, hs in halves if any(2 * (h % prpow) > prpow - 1 for h in hs)
    ]


def test_criterion_4_decomposition_existence_uniqueness(capfd):
    # gl, gsp and levi classes all decompose uniquely.  The odd orthogonal
    # classification holds only in a weaker form: its short simple coroot
    # pairs evenly with every character, so the classes of the predicted
    # residues have no restricted representative (0 decompositions), and
    # every other class decomposes uniquely.
    start = time.perf_counter()
    radius = 5
    problems = []
    summaries = []
    cases = [
        ("gl(3)", GL3),
        ("gsp(4)", GSP4),
        ("go_odd(5)", GO5),
        ("levi(2,3)", LEVI23),
    ]
    for name, datum in cases:
        size = (2 * radius + 1) ** datum.ambient_dim
        halves = half_pairings(datum, radius) if datum is GO5 else None
        for p, r in ((2, 1), (2, 2), (3, 1), (3, 2)):
            ctx = ClassificationContext(datum, p, r)
            if datum is GO5:
                checked, failures = decompose_unique_sweep(
                    ctx.tables(), p**r, radius, max_failures=size
                )
                expected = unreachable_residues(halves, p**r)
            else:
                checked, failures = decompose_unique_sweep(
                    ctx.tables(), p**r, radius
                )
                expected = []
            if checked != size:
                problems.append(f"{name} p={p} r={r}: swept {checked} of {size}")
            failed = [lam for lam, _ in failures]
            if failed != expected:
                mismatch = sorted(set(failed) ^ set(expected))[:1]
                problems.append(
                    f"{name} p={p} r={r}: {len(failed)} failures, "
                    f"{len(expected)} predicted; first mismatch {mismatch}"
                )
            counted = [(lam, count) for lam, count in failures if count]
            if counted:
                problems.append(
                    f"{name} p={p} r={r}: first failure {counted[0][0]} "
                    f"with {counted[0][1]} decompositions"
                )
            if datum is GO5:
                non_unique = sum(1 for _, count in failures if count > 1)
                summaries.append(
                    f"{name} p={p} r={r}: {len(failed):,} of {size:,} classes "
                    f"have no restricted representative; {non_unique} non-unique"
                )
    finish(capfd, 4, "decomposition-existence-uniqueness", start,
           not problems, "; ".join(problems), "[" + "; ".join(summaries) + "]")


def test_criterion_5_assumption_certification(capfd):
    start = time.perf_counter()
    problems = []
    for name, datum in (
        ("gl(2)", GL2),
        ("gl(3)", GL3),
        ("gsp(4)", GSP4),
        ("go_odd(5)", GO5),
        ("levi(2,3)", LEVI23),
    ):
        report = check_assumption(datum, 2, 1)
        bad = [
            f"{verdict.name}: {verdict.witness}"
            for verdict in report.properties
            if not verdict.ok or verdict.skipped
        ]
        if bad:
            problems.append(f"{name} (radius {report.box_radius}): {bad}")
    report = validate_datum(build_go_even(8))
    flags = {
        "a": report.a,
        "b": report.b,
        "c_lower": report.c_lower,
        "c_upper": report.c_upper,
        "d": report.d,
    }
    if flags != {"a": True, "b": True, "c_lower": False, "c_upper": True,
                 "d": True}:
        problems.append(f"go_even(8) hypothesis flags {flags}")
    if not report.witnesses or any(
        not w.startswith("(c-lower)") for w in report.witnesses
    ):
        problems.append(f"go_even(8) witnesses {report.witnesses}")
    finish(capfd, 5, "assumption-certification", start,
           not problems, "; ".join(problems))


def test_criterion_6_digit_set_descriptions_coincide(capfd):
    start = time.perf_counter()
    problems = []
    for name, datum in (
        ("gl(2)", GL2),
        ("gl(3)", GL3),
        ("gsp(4)", GSP4),
        ("go_odd(5)", GO5),
    ):
        for prpow, (p, r) in MODULUS_OF.items():
            ctx = ClassificationContext(datum, p, r)
            flags = predicate_flags_box(ctx.tables(), prpow, 2 * prpow)
            for word in flags:
                literal = word >> 3 & 1
                conjunction = 1 if word & 0b111 == 0b111 else 0
                if literal != conjunction:
                    problems.append(f"{name} p^r={prpow}: flag word {word}")
                    break
    finish(capfd, 6, "digit-set-descriptions-coincide", start,
           not problems, "; ".join(problems))


def test_criterion_7_shift_bijection(capfd):
    start = time.perf_counter()
    problems = []
    for n in (2, 3):
        datum = build_gl(n)
        for p in (2, 3):
            ctx = ClassificationContext(datum, p, 1)
            for lam in box(n, 3):
                if not simple_membership(lam, ctx):
                    continue
                bound = shift_bound_a(lam, ctx)
                for i in range(p - bound):
                    outcome = check_shift_bijection(lam, i, ctx, 6)
                    if not outcome.ok:
                        problems.append(
                            f"gl({n}) p={p} weight {lam} shift {i}: "
                            f"counterexample {outcome.counterexample}"
                        )
    finish(capfd, 7, "shift-bijection", start, not problems, "; ".join(problems))


def test_criterion_8_functional_permutation_equivariance(capfd):
    start = time.perf_counter()
    order = (1, 0)
    permuted = permute_d(LEVI23, order)
    problems = []
    for lam in box(LEVI23.ambient_dim, 3):
        base = phi(lam, LEVI23)
        swapped = phi(lam, permuted)
        if swapped != tuple(base[j] for j in order):
            problems.append(f"weight {lam}: {swapped} vs {base}")
            break
    finish(capfd, 8, "functional-permutation-equivariance", start,
           not problems, "; ".join(problems))
