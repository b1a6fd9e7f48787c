"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; without -s
they still appear in captured output for any failing criterion.
"""

import functools
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from randfam import (
    rand_free_uniform_family,
    rand_moduli,
    rand_partite,
    rand_set_family,
)

from sunflower import (
    SplitMix64,
    UniformInstance,
    VectorFamily,
    VectorInstance,
    as_modulus_vector,
    balanced_bound,
    c_d,
    cnf_satisfiable,
    conjecture_scan,
    crt_map,
    dump_json,
    ek_guarantee,
    embed_vectors_as_sets,
    erdos_rado_threshold,
    export_cnf,
    find_sunflower_sets,
    find_sunflower_sets_fast,
    find_sunflower_vectors,
    generalized_ns_bound,
    is_sunflower_sets,
    is_sunflower_vectors,
    j_constant,
    main_bound,
    max_sunflower_free_uniform,
    max_sunflower_free_vectors,
    ns_vector_bound,
    pipeline,
    psi_inverse,
    psi_map,
    verify_family_points,
    witness_holds,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {desc}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {num:02d} PASS {desc}")


def test_criterion_01_j3_value_and_speed():
    with criterion(1, "J(3) = 0.9184 within 5e-5 in under a second"):
        start = time.perf_counter()
        res = j_constant(3)
        elapsed = time.perf_counter() - start
        assert abs(res.j_value - 0.9184) <= 5e-5
        assert elapsed < 1.0


def test_criterion_02_j_monotone_tail():
    with criterion(2, "J decreasing on q = 3..64 and J(1024) in [0.8414, 0.8500]"):
        start = time.perf_counter()
        values = [j_constant(q).j_value for q in range(3, 65)]
        assert all(a > b for a, b in zip(values, values[1:]))
        tail = j_constant(1024).j_value
        assert 0.8414 <= tail <= 0.8500
        assert time.perf_counter() - start < 5.0


SMALL_VECTOR_MAXIMA = (((3,), 2), ((4,), 2), ((5,), 2), ((3, 3), 4))


def test_criterion_03_small_vector_maxima_under_bounds():
    with criterion(3, "c_3 exact, ns bound at (3,2), four exact maxima below both bounds"):
        start = time.perf_counter()
        assert abs(c_d(3) - 3.0) <= 1e-12
        nsv = ns_vector_bound(3, 2)
        assert abs(nsv.value - 9.0) <= max(nsv.radius, 1e-9)
        for moduli, expect in SMALL_VECTOR_MAXIMA:
            res = max_sunflower_free_vectors(moduli)
            assert res.optimal and res.maximum == expect
            ok, _ = verify_family_points(
                VectorInstance(as_modulus_vector(moduli)), res.witness_points
            )
            assert ok
            d = moduli[0]
            cap = c_d(d) ** len(moduli)
            assert res.maximum <= cap * (1 + 1e-12)
            assert res.maximum <= generalized_ns_bound(moduli)
        assert time.perf_counter() - start < 10.0


def test_criterion_04_pair_threshold_met_exactly():
    with criterion(4, "threshold(2,3) = 6 exactly and a free 6-family of pairs on [6]"):
        start = time.perf_counter()
        t = erdos_rado_threshold(2, 3)
        assert isinstance(t, Fraction) and t == 6
        res = max_sunflower_free_uniform(2, 6)
        assert res.optimal and res.maximum == 6
        ok, _ = verify_family_points(UniformInstance(2, 6), res.witness_points)
        assert ok
        assert time.perf_counter() - start < 30.0


def test_criterion_05_fast_detector_agrees_with_naive():
    with criterion(5, "fast vs naive detection agrees on 1000 random set families"):
        rng = SplitMix64(11)
        agreements = 0
        for _ in range(1000):
            fam = rand_set_family(rng.spawn())
            fast = find_sunflower_sets_fast(fam)
            naive = find_sunflower_sets(fam)
            assert (fast is None) == (naive is None)
            if fast is not None:
                assert witness_holds(fam, fast) and witness_holds(fam, naive)
            agreements += 1
        assert agreements == 1000


def test_criterion_06_structure_maps_round_trip_and_preserve():
    with criterion(6, "partite round-trips, embedding equivalence, residue map preserves freeness"):
        rng = SplitMix64(12)
        for _ in range(500):
            h, p = rand_partite(rng.spawn())
            assert psi_inverse(psi_map(h, p), p).members == h.members

        for d in (3, 4):
            mv = as_modulus_vector((d, d))
            points = list(product(range(d), repeat=2))
            for x, y, z in combinations(points, 3):
                as_sets = embed_vectors_as_sets(VectorFamily(mv, (x, y, z)))
                assert is_sunflower_vectors(x, y, z) == is_sunflower_sets(
                    list(as_sets.members)
                )

        mv15 = as_modulus_vector((15,))
        families = 0
        for size in range(1, 5):
            for combo in combinations(range(15), size):
                fam = VectorFamily(mv15, tuple((v,) for v in combo))
                families += 1
                if find_sunflower_vectors(fam) is None:
                    assert find_sunflower_vectors(crt_map(fam)) is None
        assert families == 1940


def test_criterion_07_pipeline_certifies_random_free_families():
    with criterion(7, "200 random free uniform families pass every pipeline certificate"):
        rng = SplitMix64(20260817)
        degenerate = 0
        for _ in range(200):
            k = 1 + rng.below(4)
            m = k + rng.below(14 - k + 1)
            fam = rand_free_uniform_family(rng.spawn(), k, m)
            trace = pipeline(fam)
            assert all(trace.certificates.values()), trace.certificates
            assert trace.g_size >= ek_guarantee(k, trace.input_size)
            if m > k:
                mb = main_bound(k, m)
                assert trace.input_size <= mb.value + mb.radius
            else:
                degenerate += 1
        assert degenerate < 200


def test_criterion_08_generalized_bound_below_tripled_balanced():
    with criterion(8, "generalized bound at most three balanced bounds on 100 random moduli"):
        rng = SplitMix64(8)
        for _ in range(100):
            mv = rand_moduli(rng.spawn())
            g = generalized_ns_bound(mv)
            b = balanced_bound(mv.n, sum(mv.moduli))
            assert isinstance(g, int) and isinstance(b, int)
            assert g <= 3 * b


CNF_CASES = (
    (("vectors", (3,)), 2),
    (("vectors", (3, 3)), 4),
    (("uniform", 2, 6), 6),
)


def _instance_for(spec):
    if spec[0] == "vectors":
        return VectorInstance(as_modulus_vector(spec[1]))
    return UniformInstance(spec[1], spec[2])


def test_criterion_09_cnf_satisfiability_matches_maxima():
    with criterion(9, "cnf satisfiable exactly up to each known maximum for s in 2..7"):
        for spec, maximum in CNF_CASES:
            instance = _instance_for(spec)
            for s in range(2, 8):
                sat = cnf_satisfiable(export_cnf(instance, s))
                assert sat == (s <= maximum), (spec, s)


@functools.lru_cache(maxsize=None)
def _thread_payload(threads: int) -> bytes:
    """All machine-readable output of criteria 3-9, with the scan at one thread count."""
    parts: list[str] = []

    for moduli, _ in SMALL_VECTOR_MAXIMA:
        res = max_sunflower_free_vectors(moduli)
        parts.append(dump_json(res.to_json_dict()))
    parts.append(dump_json(max_sunflower_free_uniform(2, 6).to_json_dict()))

    rng = SplitMix64(11)
    for _ in range(100):
        fam = rand_set_family(rng.spawn())
        w = find_sunflower_sets_fast(fam)
        parts.append(
            dump_json(
                {
                    "found": w is not None,
                    "witness": None if w is None else w.to_json_dict(fam),
                }
            )
        )

    rng = SplitMix64(12)
    for _ in range(50):
        h, p = rand_partite(rng.spawn())
        v = psi_map(h, p)
        parts.append(
            dump_json(
                {
                    "moduli": list(v.moduli.moduli),
                    "members": [list(m) for m in v.members],
                }
            )
        )
    mv15 = as_modulus_vector((15,))
    for combo in combinations(range(15), 3):
        image = crt_map(VectorFamily(mv15, tuple((v,) for v in combo)))
        parts.append(dump_json([list(m) for m in image.members]))

    rng = SplitMix64(20260817)
    for i in range(30):
        k = 1 + rng.below(4)
        m = k + rng.below(14 - k + 1)
        fam = rand_free_uniform_family(rng.spawn(), k, m)
        trace = pipeline(fam)
        parts.append(dump_json(trace.to_json_dict()))
        seeded = pipeline(fam, seed=1000 + i, rounds=4)
        parts.append(dump_json(seeded.to_json_dict()))

    rng = SplitMix64(8)
    for _ in range(20):
        mv = rand_moduli(rng.spawn())
        parts.append(
            dump_json(
                {
                    "moduli": list(mv.moduli),
                    "generalized_ns": generalized_ns_bound(mv),
                    "balanced_times_three": 3 * balanced_bound(mv.n, sum(mv.moduli)),
                }
            )
        )

    for spec, _ in CNF_CASES:
        instance = _instance_for(spec)
        for s in range(2, 8):
            cnf = export_cnf(instance, s)
            parts.append(
                dump_json(
                    {
                        "instance": dict(instance.describe()),
                        "size": s,
                        "num_vars": cnf.num_vars,
                        "num_clauses": len(cnf.clauses),
                        "satisfiable": cnf_satisfiable(cnf),
                    }
                )
            )

    parts.append(
        dump_json([r.to_json_dict() for r in conjecture_scan([2], [4, 5, 6], threads=threads)])
    )
    return "".join(parts).encode()


def test_criterion_10_reports_identical_across_thread_counts():
    with criterion(10, "criteria 3-9 reports byte-identical at 1 and 8 threads"):
        assert _thread_payload(1) == _thread_payload(8)
        assert len(_thread_payload(1)) > 10000
