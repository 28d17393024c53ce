"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, not deferred: exact means exact integer
arithmetic (zero tolerance), float screens use 1e-6, Parseval uses
1e-6 * |G|.  Runtime bounds are asserted with wall clocks.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from fdual.abelian import (
    ElementSet,
    GroupSpec,
    PairingMatrix,
    automorphism_group,
    pairing_from_automorphism,
    standard_pairing,
)
from fdual.cli import main
from fdual.cyclotomic import cyclotomic_poly
from fdual.duality import (
    check_pair,
    check_self_dual,
    exact_spectrum,
    weight_enumerator,
)
from fdual.primitivity import is_primitive
from fdual import search
from fdual.search import SearchConfig, pair_leaf_test, run_search, self_dual_leaf_test

from conftest import ORDER64_ORDERS, ORDER64_PAIRING_ROWS, ORDER64_S_COORDS
from oracles import (
    abelian_group_orders,
    dual_side_holds,
    eval_float,
    exact_pair_classes,
    float_self_dual_holds,
    in_proper_coset_oracle,
    map_set,
    oracle_neg,
    poly_mul,
    spectrum_entry,
    translate,
    union_of_cosets_oracle,
)


def test_criterion_1_shipped_instance(theorem21_path, tmp_path):
    """Shipped order-64 instance verifies exactly and is primitive, fast."""
    cert_path = tmp_path / "cert.json"
    start = time.monotonic()
    assert main(["verify", str(theorem21_path), "--emit-certificate", str(cert_path)]) == 0
    assert main(["primitive", str(theorem21_path)]) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"verification took {elapsed:.3f}s, bound is 1s"

    cert = json.loads(cert_path.read_text())
    assert len(cert["spectrum"]) == 64
    # all 64 identities hold exactly: spectrum(t) == 8 * nu(t), integers
    assert all(cert["spectrum"][t] == 8 * cert["nu_t"][t] for t in range(64))
    assert cert["s_primitive"] and cert["t_primitive"]
    print(f"ACCEPTANCE 1 PASS: order-64 instance verified exactly in {elapsed:.3f}s")


def test_criterion_2_mutation_sensitivity(theorem21_path, tmp_path):
    """One changed element breaks verification; float oracle agrees with the
    exact verdict on the original and 20 random single-element mutations."""
    data = json.loads(theorem21_path.read_text())
    data["S"] = [c for c in data["S"] if c != [1, 1, 3, 2]] + [[1, 1, 3, 3]]
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(data))
    assert main(["verify", str(mutated)]) == 1

    spec = GroupSpec(ORDER64_ORDERS)
    order64_pairing = PairingMatrix(spec, ORDER64_PAIRING_ROWS)
    matrix = [list(r) for r in ORDER64_PAIRING_ROWS]

    def agree(coords_list):
        exact = check_self_dual(spec, order64_pairing, ElementSet.from_coords(spec, coords_list)).holds
        approx = float_self_dual_holds(ORDER64_ORDERS, coords_list, matrix, tol=1e-6)
        assert exact == approx, coords_list
        return exact

    assert agree(ORDER64_S_COORDS) is True
    rng = random.Random(20240817)
    elements = list(itertools.product(range(2), range(2), range(4), range(4)))
    outside = [e for e in elements if e not in set(ORDER64_S_COORDS)]
    for _ in range(20):
        victim = rng.choice(ORDER64_S_COORDS)
        replacement = rng.choice(outside)
        mutated_coords = [c for c in ORDER64_S_COORDS if c != victim] + [replacement]
        agree(mutated_coords)
    print("ACCEPTANCE 2 PASS: exact and float verdicts agree on original and 20 mutations")


def test_criterion_3_small_group_ground_truth():
    """Z4 size 2 has exactly the TITO class; Z2^2 size 2 has none; both match
    the all-S-times-all-T exact oracle."""
    start = time.monotonic()
    z4 = GroupSpec((4,))
    result = run_search(SearchConfig(spec=z4, target_size=2, mode="pair",
                                     symmetry="affine", frontier_depth=1))
    assert result.complete
    assert len(result.certificates) == 1
    assert result.certificates[0].s.indices == (0, 1)
    assert result.certificates[0].partner.indices == (0, 1)
    assert exact_pair_classes(z4, 2) == {(0, 1)}

    z22 = GroupSpec((2, 2))
    result22 = run_search(SearchConfig(spec=z22, target_size=2, mode="pair",
                                       symmetry="affine", frontier_depth=1))
    assert result22.complete and not result22.certificates
    assert exact_pair_classes(z22, 2) == set()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"ground truth took {elapsed:.3f}s, bound is 5s"
    print(f"ACCEPTANCE 3 PASS: Z4 -> one class, Z2^2 -> none, oracle agrees ({elapsed:.2f}s)")


def test_criterion_4_cyclic_desk_sweep():
    """No primitive formally dual set in any cyclic Z_n, n <= 12, for any
    divisor size 1 < s < n, except the size-2 class in Z4."""
    start = time.monotonic()
    found = {}
    for n in range(2, 13):
        spec = GroupSpec((n,))
        for size in [d for d in range(2, n) if n % d == 0]:
            cfg = SearchConfig(spec=spec, target_size=size, mode="pair",
                               symmetry="affine", frontier_depth=min(2, size - 1))
            result = run_search(cfg)
            assert result.complete, (n, size)
            if result.certificates:
                found[(n, size)] = [c.s.indices for c in result.certificates]
    assert found == {(4, 2): [(0, 1)]}, found

    # hand spot-checks of rejections: the exact spectrum itself rules these out
    z8 = GroupSpec((8,))
    s01 = ElementSet.from_indices([0, 1])
    spectrum_z8 = exact_spectrum(z8, standard_pairing(z8), s01)
    assert spectrum_z8[1] is None  # |1 + zeta_8|^2 = 2 + sqrt(2), not an integer
    assert pair_leaf_test(z8, s01) is None

    z6 = GroupSpec((6,))
    spectrum_z6 = exact_spectrum(z6, standard_pairing(z6), s01)
    assert spectrum_z6 == [4, 3, 1, 0, 1, 3]
    # weight profile w(1) = |T| * 3 / |S|^2 = 9/4 is not an integer
    assert (3 * spectrum_z6[1]) % 4 != 0
    assert pair_leaf_test(z6, s01) is None

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"sweep took {elapsed:.1f}s, bound is 10min"
    print(f"ACCEPTANCE 4 PASS: cyclic sweep clean except Z4 ({elapsed:.1f}s)")


def test_criterion_5_property_suites():
    """All property suites at their stated sample sizes and tolerances."""
    pool = [GroupSpec(o) for o in [(4,), (2, 2), (6,), (8,), (2, 4), (9,), (12,), (2, 8), (16,), (4, 4), (2, 2, 4)]]
    rng = random.Random(51)

    # weight enumerator invariants, 1000 random sets
    for _ in range(1000):
        spec = rng.choice(pool)
        s = ElementSet.from_indices(rng.sample(range(spec.order), rng.randint(1, spec.order)))
        nu = weight_enumerator(spec, s)
        assert nu[0] == len(s)
        assert sum(nu) == len(s) ** 2
        assert all(nu[d] == nu[oracle_neg(spec, d)] >= 0 for d in range(spec.order))

    # Parseval within 1e-6 * N on the float path
    for _ in range(60):
        spec = rng.choice(pool)
        s = ElementSet.from_indices(rng.sample(range(spec.order), rng.randint(1, spec.order)))
        pairing = standard_pairing(spec)
        total = sum(eval_float(spectrum_entry(spec, pairing, s, t)).real for t in range(spec.order))
        assert abs(total - spec.order * len(s)) <= 1e-6 * spec.order

    # Eq.(1) <=> Eq.(2) on 200 random triples in groups of order <= 16
    small = [g for g in pool if g.order <= 16]
    holding = 0
    for _ in range(200):
        spec = rng.choice(small)
        n = spec.order
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        s_size = rng.choice(divisors)
        t_size = n // s_size if rng.random() < 0.85 else rng.choice(divisors)
        s = ElementSet.from_indices(rng.sample(range(n), s_size))
        t = ElementSet.from_indices(rng.sample(range(n), t_size))
        tables = automorphism_group(spec)
        pairing = pairing_from_automorphism(standard_pairing(spec), tables[rng.randrange(len(tables))])
        lhs = check_pair(spec, pairing, s, t).holds
        assert lhs == dual_side_holds(spec, pairing, s, t)
        holding += lhs
    z4 = GroupSpec((4,))
    tito = ElementSet.from_indices([0, 1])
    assert check_pair(z4, standard_pairing(z4), tito, tito).holds
    assert dual_side_holds(z4, standard_pairing(z4), tito, tito)

    # primitivity shortcut against the subgroup-lattice oracle, exhaustive |G| <= 8
    for orders in abelian_group_orders(8):
        spec = GroupSpec(orders)
        for bits in range(1, 1 << spec.order):
            s = ElementSet(bits)
            report = is_primitive(spec, s)
            assert report.in_proper_coset == in_proper_coset_oracle(spec, s)
            assert report.union_of_cosets == union_of_cosets_oracle(spec, s)

    # self-dual verdicts are affine-orbit properties
    square_pool = [(GroupSpec((4,)), 2), (GroupSpec((9,)), 3), (GroupSpec((2, 8)), 4), (GroupSpec((4, 4)), 4)]
    for spec, size in square_pool:
        tables = automorphism_group(spec)
        pairing = standard_pairing(spec)
        for _ in range(12):
            s = ElementSet.from_indices(rng.sample(range(spec.order), size))
            # translation invariance is exact under a fixed pairing
            v = rng.randrange(spec.order)
            assert (
                check_self_dual(spec, pairing, s).holds
                == check_self_dual(spec, pairing, translate(spec, s, v)).holds
            )
            # existence of a witnessing pairing is a full affine invariant
            alpha = tables[rng.randrange(len(tables))]
            image = translate(spec, map_set(alpha, s), rng.randrange(spec.order))
            assert (self_dual_leaf_test(spec, s) is None) == (
                self_dual_leaf_test(spec, image) is None
            )

    # cyclotomic product identity up to m = 64
    for m in range(1, 65):
        acc = (1,)
        for d in range(1, m + 1):
            if m % d == 0:
                acc = poly_mul(acc, cyclotomic_poly(d).coeffs)
        assert acc == (-1,) + (0,) * (m - 1) + (1,)

    print("ACCEPTANCE 5 PASS: nu, Parseval, equivalence, primitivity, affine-invariance, Phi suites")


def test_criterion_6_determinism_and_resume(tmp_path, monkeypatch):
    """Z2 x Z8 size 4: worker count does not change results, and an
    interrupted-and-resumed run equals an uninterrupted one."""
    base = dict(spec=GroupSpec((2, 8)), target_size=4, mode="pair",
                symmetry="affine", frontier_depth=2)
    # four pool workers from the first task on, not a search this small
    # kept in-process
    monkeypatch.setattr(search, "_in_process", lambda queued, ran, busy: False)
    one = run_search(SearchConfig(**base), jobs=1)
    four = run_search(SearchConfig(**base), jobs=4)
    assert one.complete and four.complete
    assert [(c.s.indices, c.partner.indices) for c in one.certificates] == [
        (c.s.indices, c.partner.indices) for c in four.certificates
    ]
    assert one.stats.leaves_tested == four.stats.leaves_tested
    assert one.stats.hits == four.stats.hits
    d1, d4 = one.stats.to_dict(), four.stats.to_dict()
    d1.pop("elapsed"), d4.pop("elapsed")
    assert d1 == d4

    # interrupt after the first checkpointed task, then resume
    ck = str(tmp_path / "ck.json")
    stopped = run_search(SearchConfig(**base, checkpoint_path=ck, budget=100))
    assert not stopped.complete
    record = json.loads(open(ck).read())
    assert record["completed"], "the interrupted run persisted at least one task"
    resumed = run_search(SearchConfig(**base, checkpoint_path=ck))
    assert resumed.complete
    assert [(c.s.indices, c.partner.indices) for c in resumed.certificates] == [
        (c.s.indices, c.partner.indices) for c in one.certificates
    ]
    dr = resumed.stats.to_dict()
    dr.pop("elapsed")
    assert dr == d1
    print("ACCEPTANCE 6 PASS: 1 vs 4 workers identical; interrupted+resumed == uninterrupted")


def test_criterion_7_scale_honesty(tmp_path):
    """Z8^2 size 8: budget semantics must be loud and resumable.  The
    budget-10^6 command is run first; because the affine reduction collapses
    the tree it finishes below budget with zero hits: a complete desk-scale
    sweep, so the empty result stands on a finished search rather than a
    truncated one.  The budget-stop path is then exercised with a budget
    that actually binds: exit 3, zero hits, a checkpoint, and a resume that
    extends it without redoing work."""
    out1 = tmp_path / "literal"
    ck1 = str(tmp_path / "ck_literal.json")
    code = main(["search", "--group", "8,8", "--size", "8", "--mode", "pair",
                 "--budget", "10^6", "--checkpoint", ck1, "--out", str(out1)])
    stats1 = json.loads((out1 / "stats.json").read_text())
    assert code == 0
    assert stats1["status"] == "complete"
    assert stats1["hits_found"] == 0
    assert stats1["stats"]["nodes_visited"] <= 10 ** 6

    # binding budget: one task fits, the rest do not
    out2 = tmp_path / "binding"
    ck2 = str(tmp_path / "ck_binding.json")
    argv = ["search", "--group", "8,8", "--size", "8", "--mode", "pair",
            "--frontier-depth", "4", "--budget", "3e4", "--checkpoint", ck2]
    assert main(argv + ["--out", str(out2)]) == 3
    stats2 = json.loads((out2 / "stats.json").read_text())
    assert stats2["status"] == "budget_stopped" and not stats2["complete"]
    assert stats2["hits_found"] == 0
    record = json.loads(open(ck2).read())
    assert record["completed"], "budget run persisted completed tasks"
    first_done = [tuple(t) for t in record["completed"]]

    out3 = tmp_path / "resumed"
    assert main(argv + ["--out", str(out3)]) == 3
    record2 = json.loads(open(ck2).read())
    second_done = [tuple(t) for t in record2["completed"]]
    assert set(first_done) < set(second_done), "resume extended the completed set"
    stats3 = json.loads((out3 / "stats.json").read_text())
    assert stats3["hits_found"] == 0
    print(
        "ACCEPTANCE 7 PASS: literal 10^6 run completed below budget with zero hits; "
        "binding budget stops with exit 3 and resumes without redoing work"
    )
