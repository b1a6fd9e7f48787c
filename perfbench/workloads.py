"""The three benchmark workloads, each a fixed call list run by one caller.

A pass is one run through a workload's steps.  Each step makes one public
call into the package through a Recorder, checks the answer with the oracle
and adds its deterministic counts to the pass's counters.  Every workload
ends with the same in-process CLI calls; the ones that take a thread count
are made at one and at two threads, and their stdout must match byte for
byte.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import sunflower as sf
from sunflower import cli

import gen
import oracle
from oracle import require


@dataclass
class Step:
    name: str
    run: Callable  # run(rec, counts)


class Workload:
    """Inputs built once from the seed, plus the call list of one pass."""

    name = ""

    def __init__(self, seed: int):
        for cap in gen.CAPS:
            oracle.require_free(cap, oracle.is_vector_sunflower, f"cap of size {len(cap)}")
        self.rng = random.Random(seed)
        self.vector_inputs: list[tuple[tuple[int, ...], str]] = []
        self.vector_instances: list[tuple[int, ...]] = []
        self.uniform_instances: list[tuple[int, int]] = []
        self.steps: list[Step] = []

    def setup_spec(self) -> dict:
        """What a fresh process builds through the public API at set-up."""
        return {
            "vector_texts": [[list(m), text] for m, text in self.vector_inputs],
            "vector_instances": [list(m) for m in self.vector_instances],
            "uniform_instances": [list(p) for p in self.uniform_instances],
        }

    def step(self, name: str):
        def register(fn):
            self.steps.append(Step(name, fn))
            return fn
        return register

    # ---------------------------------------------------------------- shared

    def parse_step(self, name: str, moduli, rows, text: str) -> dict:
        """A step parsing one family's text; the parsed family lands in box."""
        box: dict = {}

        @self.step(f"parse {name}")
        def _(rec, counts):
            fam = rec.call("model.parse", sf.parse_vector_family, text, moduli)
            require(tuple(fam.moduli) == tuple(moduli), "parsed moduli differ")
            require(list(fam.members) == rows, "parsed rows differ")
            box["family"] = fam

        self.vector_inputs.append((tuple(moduli), text))
        return box

    def add_cli_steps(self) -> None:
        """Four CLI commands; those taking --threads run at 1 then 2, bytes must match.

        `detect vectors` and `cnf check` take no thread count, so they run once.
        """
        base = gen.image(gen.product_rows(gen.CAP3, gen.CAP2), self.rng)  # 36 in Z_3^5
        rows, witness = planted(base, self.rng)
        self.parse_step("cli family", (3,) * 5, rows, gen.vector_text(rows))

        def detect(out):
            require(out["found"], "planted sunflower not found")
            oracle.check_witness(out["witness"]["members"], witness, rows,
                                 oracle.is_vector_sunflower)

        def search(out):
            require(out["optimal"] and out["maximum"] == oracle.maximum("vectors", (3, 3, 3)),
                    "search vectors 3,3,3 maximum")
            oracle.require_free([tuple(p) for p in out["witness"]],
                                oracle.is_vector_sunflower, "CLI witness")

        def cnf(out):
            require(out["satisfiable"] == (7 <= oracle.maximum("uniform", (2, 6))),
                    "cnf check satisfiability")

        def scan(out):
            require([c["m"] for c in out] == list(range(4, 9)), "scan cells")
            for c in out:
                require(c["optimal"] and c["max_union"] == oracle.max_union_2(c["m"]),
                        f"max union m={c['m']}")
                members = [frozenset(w) for w in c["witness"]]
                oracle.require_free(members, oracle.is_set_sunflower, "CLI union witness")

        commands = [
            ("detect", ["detect", "vectors", "--moduli", "3,3,3,3,3",
                        "--inline", gen.inline_text(rows)], (None,), detect),
            ("search", ["search", "vectors", "--moduli", "3,3,3"], (1, 2), search),
            ("cnf", ["cnf", "check", "--k", "2", "--m", "6", "--size", "7"], (None,), cnf),
            ("scan", ["conjecture", "scan", "--k", "2", "--m", "4..8"], (1, 2), scan),
        ]
        for name, argv, thread_counts, check in commands:
            first: dict = {}
            for threads in thread_counts:
                label = f"cli {name}" if threads is None else f"cli {name} threads={threads}"
                self.steps.append(Step(label, _cli_step(argv, threads, check, first)))


def planted(rows, rng):
    """gen.plant, with the planted triple checked to be the only sunflower."""
    out, witness = gen.plant(rows, rng)
    oracle.check_plant(out, witness)
    return out, witness


def _cli_step(argv, threads: int | None, check, first: dict):
    """One cli.main call, with --threads unless threads is None.

    The two-thread call must print the one-thread call's bytes.
    """
    if threads is not None:
        argv = argv + ["--threads", str(threads)]

    def run(rec, counts):
        if threads == 1:
            first.pop("stdout", None)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = rec.call("cli.main", cli.main, argv)
        require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        check(json.loads(text))
        if threads == 1:
            first["stdout"] = text
        elif threads == 2:
            require(text == first.get("stdout"), "stdout differs between 1 and 2 threads")

    return run


# -------------------------------------------------------------------- exact-search


class ExactSearch(Workload):
    """Branch and bound does nearly all the work; witnesses stay small."""

    name = "exact-search"
    SCAN_MS = tuple(range(4, 12))

    def __init__(self, seed: int):
        super().__init__(seed)
        searches = [
            ("vectors", (3, 3, 3), None),
            ("vectors", (3, 3, 4), None),
            ("vectors", (4, 4, 4), None),
            ("uniform", (3, 7), None),
            ("uniform", (2, 9), None),
            ("vectors", (3, 3, 3, 3), 500_000),  # open target s(Z_3^4) = 20
        ]
        for kind, params, budget in searches:
            self.steps.append(Step(f"search {kind} {params}", _search_step(kind, params, budget)))
            if kind == "vectors":
                self.vector_instances.append(params)
            else:
                self.uniform_instances.append(params)

        @self.step("conjecture scan k=2")
        def _(rec, counts):
            reports = rec.call("conjectures.scan", sf.conjecture_scan,
                               [2], list(self.SCAN_MS), threads=2)
            counts["conjectures.nodes"] += sum(r.nodes_explored for r in reports)
            require([(r.k, r.m) for r in reports] == [(2, m) for m in self.SCAN_MS],
                    "scan cells")
            for r in reports:
                oracle.check_union_report(r, r.k, r.m)
            rec.call("model.dump_json", sf.dump_json, [r.to_json_dict() for r in reports])

        self.add_cli_steps()


def _search_step(kind: str, params: tuple[int, ...], budget: int | None):
    def run(rec, counts):
        kwargs = {} if budget is None else {"max_nodes": budget}
        if kind == "vectors":
            result = rec.call("search.vectors", sf.max_sunflower_free_vectors, params, **kwargs)
        else:
            result = rec.call("search.uniform", sf.max_sunflower_free_uniform, *params, **kwargs)
        counts["search.nodes"] += result.nodes_explored
        counts["search.prunes"] += result.stats["prunes"]
        gap = oracle.check_search(result, kind, params, exact=budget is None)
        if budget is not None:
            # the first release finds the known maximum within the budget, so
            # a faster engine that settles for a worse incumbent fails here
            counts["budget_gap"] += gap
            require(gap == 0, f"budgeted search found {result.maximum}, known {result.maximum + gap}")
        rec.call("model.dump_json", sf.dump_json, result.to_json_dict())

    return run


# -------------------------------------------------------------------- certify-large


class CertifyLarge(Workload):
    """Cubic detection and verification do nearly all the work; the DFS does none."""

    name = "certify-large"
    J_QS = tuple(range(3, 1025))
    BINARY = (2,) * 7

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        free = gen.image(gen.product_rows(gen.CAP3, gen.CAP2, gen.CAP2), rng)  # 144 in Z_3^7
        planted_rows, witness = planted(free, rng)
        big = gen.image(gen.product_rows(gen.CAP4, gen.CAP3), rng)  # 180 in Z_3^7
        wide = gen.image(gen.product_rows(gen.CAP2, gen.CAP2, gen.CAP2, gen.CAP2), rng)  # 256 in Z_3^8
        ek_seed = rng.randrange(2**32)
        j_reference = {q: oracle.j_reference(q) for q in self.J_QS}

        fams = {
            "free": self.parse_step("free", (3,) * 7, free, gen.vector_text(free)),
            "planted": self.parse_step("planted", (3,) * 7, planted_rows,
                                       gen.vector_text(planted_rows)),
            "big": self.parse_step("big", (3,) * 7, big, gen.vector_text(big)),
            "wide": self.parse_step("wide", (3,) * 8, wide, gen.vector_text(wide)),
        }
        rows = {"free": free, "planted": planted_rows, "big": big, "wide": wide}
        expect = {"free": None, "planted": witness, "big": None, "wide": None}

        def triples(name: str) -> int:
            n = len(rows[name])
            if expect[name] is None:
                return math.comb(n, 3)
            return oracle.triples_through(n, expect[name])

        for name in ("free", "planted"):
            self.steps.append(Step(f"detect vectors {name}", _detect_step(
                "detect.vectors", sf.find_sunflower_vectors, fams[name], rows[name],
                expect[name], triples(name))))
            self.steps.append(Step(f"detect ap {name}", _detect_step(
                "detect.ap", sf.find_ap_triple, fams[name], rows[name],
                expect[name], triples(name))))

        sets: dict[str, dict] = {}
        for name in ("free", "planted", "wide", "big"):
            sets[name] = {}
            self.steps.append(Step(f"embed {name}", _embed_step(fams[name], rows[name], sets[name])))
        for name in ("free", "planted", "wide"):
            self.steps.append(Step(f"detect sets {name}", _sets_step(
                sets[name], expect[name], triples(name))))

        @self.step("pipeline big")
        def _(rec, counts):
            trace = rec.call("reduce.pipeline", sf.pipeline, sets["big"]["family"])
            oracle.check_pipeline(trace, len(big), len(big[0]))
            rec.call("model.dump_json", sf.dump_json, trace.to_json_dict())

        @self.step("ek_partition seeded")
        def _(rec, counts):
            fam = sets["big"]["family"]
            structure, kept = rec.call("reduce.ek_partition", sf.ek_partition, fam,
                                       mode="seeded", seed=ek_seed, rounds=8, threads=2)
            oracle.check_partition(structure, kept, list(fam.members), len(big[0]))

        self.steps.append(Step("search binary", _search_step("vectors", self.BINARY, None)))
        binary = sf.VectorInstance(sf.as_modulus_vector(self.BINARY))
        binary_points = oracle.instance_points("vectors", self.BINARY)
        self.vector_instances.append(self.BINARY)

        @self.step("greedy binary")
        def _(rec, counts):
            greedy = rec.call("search.greedy", sf.greedy_lower_bound, binary)
            # every binary family is sunflower-free, so greedy keeps every point
            require(list(greedy) == list(range(len(binary_points))), "greedy dropped points")

        @self.step("verify binary")
        def _(rec, counts):
            ok, found = rec.call("search.verify", sf.verify_family_points, binary, binary_points)
            require(ok and found is None, "binary family reported to hold a sunflower")

        @self.step("j_constant sweep")
        def _(rec, counts):
            results = [rec.call("bounds.j_constant", sf.j_constant, q) for q in self.J_QS]
            for q, r in zip(self.J_QS, results):
                oracle.check_j(r, q, j_reference[q])
            rec.call("model.dump_json", sf.dump_json, [r.to_json_dict() for r in results])

        @self.step("compare_bounds grid")
        def _(rec, counts):
            out = []
            for n, known in enumerate(oracle.CAP_MAXIMA, start=1):
                reports = rec.call("bounds.compare", sf.compare_bounds, moduli=(3,) * n)
                oracle.check_bound_reports(reports, known)
                out.extend(reports)
            for k, m in sorted(p for kind, p in oracle.MAXIMA if kind == "uniform"):
                reports = rec.call("bounds.compare", sf.compare_bounds, k=k, M=m)
                oracle.check_bound_reports(reports, oracle.maximum("uniform", (k, m)))
                out.extend(reports)
            rec.call("model.dump_json", sf.dump_json, [r.to_json_dict() for r in out])

        self.add_cli_steps()


def _detect_step(layer, fn, box, rows, expected, triples):
    def run(rec, counts):
        found = rec.call(layer, fn, box["family"])
        counts["detect.triples"] += triples
        if expected is None:
            require(found is None, f"sunflower reported in a free family: {found}")
            return
        require(found is not None, "planted sunflower missed")
        indices = found if isinstance(found, tuple) else found.indices
        oracle.check_witness(indices, expected, rows, oracle.is_vector_sunflower)

    return run


def _embed_step(box, rows, out):
    def run(rec, counts):
        fam = rec.call("reduce.embed", sf.embed_vectors_as_sets, box["family"])
        members = list(fam.members)
        require(len(members) == len(rows), "embedding lost members")
        # |A & B| counts the coordinates where the two vectors agree
        for i in range(len(rows) - 1):
            agree = sum(a == b for a, b in zip(rows[i], rows[i + 1]))
            require(len(members[i]) == len(rows[i]) and len(members[i] & members[i + 1]) == agree,
                    f"embedding breaks agreement at member {i}")
        out["family"] = fam

    return run


def _sets_step(box, expected, triples):
    def run(rec, counts):
        fam = box["family"]
        found = rec.call("detect.sets_fast", sf.find_sunflower_sets_fast, fam)
        counts["detect.triples"] += triples
        if expected is None:
            require(found is None, f"sunflower reported in a free set family: {found}")
            return
        require(found is not None, "planted set sunflower missed")
        members = fam.members
        oracle.check_witness(found.indices, expected, members, oracle.is_set_sunflower)
        i, j, l = found.indices
        require(found.kernel == members[i] & members[j] & members[l], "wrong kernel")

    return run


# -------------------------------------------------------------------- cnf-roundtrip


class CnfRoundtrip(Workload):
    """Pair masks built eagerly for every pair, then DPLL on the exported clauses."""

    name = "cnf-roundtrip"
    SOLVE = (
        ("vectors", (3, 3, 3), 10),
        ("vectors", (3, 3, 3), 9),
        ("uniform", (3, 6), 11),
        ("uniform", (3, 6), 10),
        ("uniform", (2, 6), 7),
    )
    EXPORT_ONLY = (
        ("vectors", (3, 3, 3, 3, 3), 10),
        ("uniform", (3, 9), 5),
        ("uniform", (4, 10), 5),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        cases = [(c, True) for c in self.SOLVE] + [(c, False) for c in self.EXPORT_ONLY]
        expected = {}
        for (kind, params, _), _solve in cases:
            count = oracle.sunflower_triples(kind, params)
            if len(oracle.instance_points(kind, params)) <= 100:
                require(count == oracle.naive_sunflower_triples(kind, params),
                        f"closed-form triple count disagrees with enumeration for {params}")
            expected[(kind, params)] = count
        for (kind, params, size), solve in cases:
            if kind == "vectors":
                instance = sf.VectorInstance(sf.as_modulus_vector(params))
                self.vector_instances.append(params)
            else:
                instance = sf.UniformInstance(*params)
                self.uniform_instances.append(params)
            self.steps.append(Step(f"cnf {kind} {params} size {size}", _cnf_step(
                instance, kind, params, size, solve, expected[(kind, params)])))
        self.add_cli_steps()


def _cnf_step(instance, kind, params, size, solve, triples):
    def run(rec, counts):
        cnf = rec.call("search.export_cnf", sf.export_cnf, instance, size)
        text = rec.call("search.to_dimacs", cnf.to_dimacs)
        counts["search.cnf_clauses"] += len(cnf.clauses)
        counts["search.dimacs_bytes"] += len(text)
        num_vars, clauses, comments = oracle.parse_dimacs(text)
        require(num_vars == cnf.num_vars and tuple(clauses) == tuple(cnf.clauses),
                "DIMACS text differs from the exported clauses")
        oracle.check_triple_clauses(clauses, kind, params, triples)
        if solve:
            again = sf.CnfInstance(num_vars, tuple(clauses), tuple(comments))
            sat = rec.call("search.cnf_satisfiable", sf.cnf_satisfiable, again)
            require(sat == (size <= oracle.maximum(kind, params)),
                    f"satisfiable={sat} at size {size}")

    return run


WORKLOADS = {w.name: w for w in (ExactSearch, CertifyLarge, CnfRoundtrip)}

