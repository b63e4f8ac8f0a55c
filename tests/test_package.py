import ast
import types
from pathlib import Path

import nonholo

ROOT = Path(__file__).resolve().parent.parent

# public names that nothing in src/nonholo or perfbench calls yet, and why
# each one stays
NO_CALLER = {
    "constraint_residuals": "the scalar reference that the tests hold the "
                            "trace's residual column to",
    "frame_rates": "the Earth-frame loop of ROADMAP item 2",
    "frame_rates_inverse": "the Earth-frame loop of ROADMAP item 2",
    "linearize_steering": "nonholo stability in every mode, ROADMAP item 8",
    "linearize_longitudinal": "nonholo stability in every mode, ROADMAP "
                              "item 8",
}


def test_all_names_resolve_and_none_is_a_module():
    # `from nonholo import *` binds exactly these, so not `path` or `sim`
    assert nonholo.__all__
    for name in nonholo.__all__:
        assert not isinstance(getattr(nonholo, name), types.ModuleType), name


def _uses(tree: ast.Module) -> set[str]:
    """Names read in a module (as a name or an attribute), each one outside
    the top-level definition that binds it; type annotations do not count."""
    notes = {id(sub) for node in ast.walk(tree)
             for note in (getattr(node, "annotation", None),
                          getattr(node, "returns", None)) if note
             for sub in ast.walk(note)}
    used = set()
    for node in tree.body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            if id(sub) in notes:
                continue
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def test_every_public_name_has_a_caller():
    # a caller is code in src/nonholo (the CLI included) other than the
    # package's re-exports, or the benchmark harness; tests do not count
    files = [p for p in (ROOT / "src" / "nonholo").glob("*.py")
             if p.name != "__init__.py"] + list((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_uses(ast.parse(p.read_text(encoding="utf-8")))
                         for p in files))
    assert set(NO_CALLER) <= set(nonholo.__all__)
    assert not set(NO_CALLER) & used, "exempt, yet now called"
    assert sorted(set(nonholo.__all__) - used - set(NO_CALLER)) == []
