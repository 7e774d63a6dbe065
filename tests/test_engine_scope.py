"""What the engine package holds: no seeded search, and no test-only code.

Every answer of the engine is a rank, a kernel or a certified isomorphism,
so nothing in it draws random numbers but the sample generators.  The hom
bases of cells and the chain-map basis under them, the bounded search for
chain isomorphisms, the truncations, `Subspace.intersect` and
`Subspace.map_through`, `BitMatrix.apply`, `Subspace.reduce` and
`Subspace.contains` (one vector at a time, where the engine maps and
tests whole bases), the one-line wrappers and accessors that only tests
used and the samplers that only tests draw from (scrambled modules, chain
maps and grammar trees) live in `tests/helpers.py` or are written out
where they are used.

The gf2 value types, `FiltMorphism`, the labels `IndecLabel` and the trees
`MotiveExpr` are plain data: values are checked where they enter
(`shell.deserialize`, the grammar's label atoms, the public `FiltModule`
constructors), and no constructor of theirs checks its fields.  Trees have
no builder methods, and a formal sum has one constructor, `FormalSum.of`.

Each job has one mechanism: `BitMatrix.from_blocks` places blocks (no
`hstack` or `vstack`), `minimize` eliminates in one ascending pass (no
`find_unit` search), and `FiltModule.of` is the one pair constructor (no
`FiltModule.build`).
"""

import ast
import importlib
from pathlib import Path

import pytest

import ttfilt

MODULES = sorted(Path(ttfilt.__file__).parent.glob("*.py"))

MOVED_OR_DELETED = {
    "find_chain_iso", "SearchExhausted", "chain_iso_inverse", "hom_basis", "hom_basis_c2",
    "truncate_ge", "truncate_le", "truncation_delta", "is_contractible", "gr_dims",
    "weight_part", "_weight_part_with_basis", "intersect",
    # second mechanisms: from_blocks places blocks, minimize makes one pass
    "hstack", "vstack", "find_unit",
    # no caller in the engine: the tests reach them through tests/helpers.py
    "unit_complex", "to_lists", "labels_at", "is_effective", "complement",
    # label atoms take their support from the label, so no leaf key normalizes the twist
    "_leaf_key",
    # the unit block lies on contiguous rows and columns: BitMatrix.split cuts every block
    "submatrix", "_rows", "_cols",
    # a truncation that states no claim of the paper: only the tests take it
    "weight_ge",
    # samplers built on ttfilt.samples that only the tests and the stress script draw from
    "scrambled_module", "random_chain_map", "random_expr", "_random_tree", "_random_leaf", "_CONSTANT_LEAVES",
    # no caller in the engine: the chain-map basis and the image of a subspace serve the tests only,
    # and the one homotopy solve builds its own system
    "chain_map_basis", "map_through", "_graded_system",
    # whole bases are mapped by one product and reduced by one reduce_all: no engine code maps
    # or reduces one vector at a time (Subspace.contains is also the name of SymbolicSet's test)
    "apply", "reduce", "_columns",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_engine_modules_are_found():
    assert {"chains.py", "filtmod.py", "gf2.py", "samples.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_sample_generators_import_random(path):
    imported = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module.split(".")[0])
    assert ("random" in imported) == (path.name == "samples.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_moved_or_deleted_name_is_defined(path):
    defined = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.alias):
            defined.add(node.asname or node.name)
    assert not defined & MOVED_OR_DELETED


@pytest.mark.parametrize("name", ["gf2.BitMatrix", "gf2.Subspace", "gf2.C2Module", "filtmod.FiltMorphism",
                                  "filtmod.IndecLabel", "motives.MotiveExpr"])
def test_plain_value_types_check_nothing_on_construction(name):
    module, cls = name.split(".")
    assert "__post_init__" not in vars(getattr(importlib.import_module(f"ttfilt.{module}"), cls))


def test_filtmodule_has_one_pair_constructor():
    # FiltModule.of takes (weight, layer) pairs; no second builder takes one layer per weight
    assert not hasattr(importlib.import_module("ttfilt.filtmod").FiltModule, "build")


def test_trees_have_no_builders_and_test_only_methods_are_gone():
    # by attribute, not by name: twist, shift, extension and direct_sum also name engine functions
    gf2, chains, filtmod, motives = (importlib.import_module(f"ttfilt.{m}")
                                     for m in ("gf2", "chains", "filtmod", "motives"))
    tree = motives.MotiveExpr
    for name in ("base", "extension", "fundamental", "cone_of", "twist", "shift"):
        assert not hasattr(tree, name), name
    # + and * are those of a tuple: they concatenate and repeat, and build no node
    assert tree.__add__ is tuple.__add__ and tree.__mul__ is tuple.__mul__
    assert hasattr(filtmod.FormalSum, "of") and not hasattr(filtmod.FormalSum, "from_iter")
    for cls, name in ((gf2.BitMatrix, "entry"), (gf2.C2Module, "direct_sum"), (chains.Complex, "width"),
                      (gf2.BitMatrix, "apply"), (gf2.Subspace, "reduce"), (gf2.Subspace, "contains")):
        assert not hasattr(cls, name), name
