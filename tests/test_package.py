"""The package namespace: each public name loads its home module on first use.

Every load check runs in a fresh interpreter, since the modules an import
loads depend on what the process imported before.  The settable surface
(keywords with defaults, CLI flags) is pinned at the end of the file.
"""

import argparse
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = """
    ApproxValue ArityMismatch BadArity BoundReport CSV_HEADER CnfInstance ConjectureReport
    DomainError DuplicateMember EXACT_INT EXACT_RATIONAL EmptySet FLOAT_APPROX Factorization
    InputHasSunflower JMinimizationResult ModulusVector NotPartite
    NotPrimePower OutOfRange PartiteStructure PipelineTrace SearchResult SetFamily SplitMix64
    SunflowerError SunflowerWitness TooLarge UniformInstance UsageError VectorFamily
    VectorInstance as_modulus_vector balanced_bound c_d cnf_satisfiable compare_bounds
    conjecture_scan coordinate_classes corollary_bound cover_count crt_map dump_json
    eg_vector_bound ek_guarantee ek_partition embed_vectors_as_sets erdos_rado_threshold
    export_cnf extract_gl factorize find_ap_triple find_sunflower_sets find_sunflower_sets_fast
    find_sunflower_vectors generalized_ns_bound greedy_lower_bound is_ap_triple
    is_sunflower_sets is_sunflower_vectors j_constant kernel_of kostochka_value main_bound
    max_sunflower_free_uniform max_sunflower_free_vectors max_union ns_subset_bound
    ns_vector_bound parse_set_family parse_vector_family pipeline psi_inverse psi_map
    scan_to_csv strip_common_elements union_size verify_family verify_family_points
    witness_holds
""".split()


def fresh(body: str):
    """Run body in a new interpreter and return the JSON it prints."""
    code = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n" + textwrap.dedent(body)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = 'sorted(m for m in sys.modules if m.startswith("sunflower."))'


def test_bare_import_loads_no_submodule():
    assert fresh(f"import sunflower\nprint(json.dumps({LOADED}))") == []


def test_building_an_instance_loads_only_what_search_needs():
    loaded = fresh(
        f"""
        import sunflower as sf
        sf.VectorInstance(sf.as_modulus_vector((3, 3)))
        sf.UniformInstance(2, 5)
        print(json.dumps({LOADED}))
        """
    )
    assert loaded == ["sunflower.detect", "sunflower.errors", "sunflower.model", "sunflower.search"]


def cli_loads(argv: list[str]) -> list[str]:
    """The sunflower modules a fresh process holds after one CLI call."""
    return fresh(
        f"""
        import contextlib, io
        from sunflower import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
        print(json.dumps({LOADED}))
        """
    )


def test_cli_detect_sets_loads_only_detect_model_and_errors():
    loaded = cli_loads(["detect", "sets", "--inline", "1;2;3"])
    assert loaded == ["sunflower.cli", "sunflower.detect", "sunflower.errors", "sunflower.model"]


def test_cli_bounds_does_not_load_search():
    loaded = cli_loads(["bounds", "--k", "2", "--M", "6"])
    assert "sunflower.bounds" in loaded and "sunflower.search" not in loaded


STDLIB_LOADED = 'sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)'


@pytest.mark.parametrize(
    "call",
    [
        "sf.VectorInstance(sf.as_modulus_vector((3, 3))); sf.UniformInstance(2, 5)",
        "assert cli.main(['search', 'vectors', '--moduli', '3,3']) == 0",
        "assert cli.main(['bounds', '--k', '2', '--M', '6']) == 0",
        "assert cli.main(['reduce', 'pipeline', '--inline', '1 2;3 4;1 3;2 4']) == 0",
        "assert cli.main(['conjecture', 'scan', '--k', '2', '--m', '4']) == 0",
    ],
    ids=["instance", "search-vectors", "bounds", "reduce-pipeline", "conjecture-scan"],
)
def test_records_load_neither_dataclasses_nor_inspect(call):
    loaded = fresh(
        f"""
        import contextlib, io
        import sunflower as sf
        from sunflower import cli
        with contextlib.redirect_stdout(io.StringIO()):
            {call}
        print(json.dumps({STDLIB_LOADED}))
        """
    )
    assert loaded == []


def test_star_import_binds_exactly_the_public_names():
    names = fresh(
        """
        namespace = {}
        exec("from sunflower import *", namespace)
        import sunflower
        print(json.dumps([sorted(set(namespace) - {"__builtins__"}), sunflower.__all__]))
        """
    )
    assert len(PUBLIC_NAMES) == 80
    assert names == [PUBLIC_NAMES, PUBLIC_NAMES]


def test_each_name_is_its_home_modules_object_and_is_cached():
    wrong = fresh(
        """
        import importlib
        import sunflower
        wrong = []
        for module, names in sunflower._EXPORTS.items():
            home = importlib.import_module(f"sunflower.{module}")
            for name in names:
                if getattr(sunflower, name) is not getattr(home, name):
                    wrong.append(name)
                if vars(sunflower).get(name) is not getattr(home, name):
                    wrong.append(f"{name} (not cached)")
                if name not in dir(sunflower):
                    wrong.append(f"{name} (not in dir)")
        print(json.dumps(wrong))
        """
    )
    assert wrong == []


@pytest.mark.parametrize("module", ["bounds", "conjectures", "reduce", "rng", "search"])
def test_a_submodule_resolves_as_an_attribute(module):
    assert fresh(
        f"""
        import sunflower
        print(json.dumps(sunflower.{module} is sys.modules["sunflower.{module}"]))
        """
    )


def test_an_unknown_name_raises_attribute_error():
    result = fresh(
        """
        import sunflower
        try:
            sunflower.no_such_name
        except AttributeError as exc:
            attr = str(exc)
        try:
            from sunflower import no_such_name
        except ImportError as exc:
            imported = type(exc).__name__
        print(json.dumps([attr, imported]))
        """
    )
    assert result == ["module 'sunflower' has no attribute 'no_such_name'", "ImportError"]


# Every settable value of the public surface. Adding or dropping a knob means
# editing these tables.
KEYWORDS_WITH_DEFAULTS = {
    "SunflowerWitness.to_json_dict": "family",
    "UniformInstance.canonical_points": "u",
    "VectorInstance.canonical_points": "u",
    "compare_bounds": "moduli k M",
    "conjecture_scan": "max_nodes time_limit threads",
    "ek_partition": "mode seed rounds threads",
    "find_sunflower_sets": "t",
    "max_sunflower_free_uniform": "max_nodes time_limit",
    "max_sunflower_free_vectors": "max_nodes time_limit",
    "max_union": "max_nodes time_limit",
    "parse_set_family": "allow_empty",
    "pipeline": "seed rounds",
}

CLI_FLAGS = {
    "detect sets": "--in --inline --t --allow-empty",
    "detect vectors": "--in --inline --moduli",
    "detect ap": "--in --inline --moduli",
    "bounds": "--moduli --k --M --format",
    "bounds j": "--q",
    "reduce pipeline": "--in --inline --seed --rounds",
    "search vectors": "--moduli --budget-nodes --time-limit --threads",
    "search uniform": "--k --m --budget-nodes --time-limit",
    "cnf export": "--moduli --k --m --size --out",
    "cnf check": "--moduli --k --m --size",
    "conjecture scan": "--k --m --csv --budget-nodes --time-limit --threads",
}


def test_public_keywords_with_defaults_are_the_pinned_ones():
    import sunflower

    found = {}
    for name in sunflower.__all__:
        obj = getattr(sunflower, name)
        if inspect.isclass(obj):
            methods = [(f"{name}.{m}", getattr(obj, m)) for m, f in vars(obj).items()
                       if not m.startswith("_") and (inspect.isfunction(f)
                                                     or isinstance(f, (staticmethod, classmethod)))]
        else:
            methods = [(name, obj)] if inspect.isfunction(obj) else []
        for qualname, fn in methods:
            keywords = [p.name for p in inspect.signature(fn).parameters.values()
                        if p.default is not p.empty]
            if keywords:
                found[qualname] = " ".join(keywords)
    assert found == KEYWORDS_WITH_DEFAULTS
    assert sum(len(v.split()) for v in found.values()) == 23


def test_cli_flags_are_the_pinned_ones():
    from sunflower.cli import build_parser

    found = {}

    def walk(parser, path):
        flags = []
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, path + [name])
            elif not isinstance(action, argparse._HelpAction):
                flags.extend(action.option_strings)
        if flags:
            found[" ".join(path)] = " ".join(flags)

    walk(build_parser(), [])
    assert found == CLI_FLAGS
    assert sum(len(v.split()) for v in found.values()) == 42
