"""The README runs as written: its library quickstart prints what it says,
and its mesh and scheme tag lists are the package's."""
import ast
import contextlib
import io
import pathlib
import re

import pytest

from spbvp.harness import MESH_TAGS
from spbvp.schemes import SCHEME_TAGS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs_and_prints_first_order_rates():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    rates, spread, csv_header = out.getvalue().splitlines()[:3]
    # corrected rates near 1 (first order up to the log factor) and a C*
    # spread near 1 (the constant does not depend on eps)
    rates = ast.literal_eval(rates)
    assert len(rates) == 4 and all(0.9 <= r <= 1.1 for r in rates)
    assert float(spread) == pytest.approx(1.0, abs=0.01)
    assert csv_header.startswith("family,scheme,N,eps,")


def test_readme_lists_exactly_the_mesh_tags():
    # the tag list of the paragraph that begins "`MESHES` holds", in order;
    # parenthesised remarks name functions, not tags
    text = README.read_text(encoding="utf-8")
    para = re.search(r"^`MESHES` holds.*?(?:\n\n|\Z)", text, re.S | re.M).group(0)
    listing = re.sub(r"\([^)]*\)", "", para.split("with n:", 1)[1]).split(".", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", listing)) == MESH_TAGS


def test_readme_lists_exactly_the_scheme_tags():
    # the tag list of the paragraph that begins "Schemes (", in order, up to
    # the end of its first sentence; parenthesised remarks name kinds and
    # functions, not tags
    text = README.read_text(encoding="utf-8")
    para = re.search(r"^Schemes \(.*?(?:\n\n|\Z)", text, re.S | re.M).group(0)
    listing = re.sub(r"\([^)]*\)", "", para.split("serves:", 1)[1]).split(".", 1)[0]
    assert tuple(re.findall(r"`([^`]+)`", listing)) == SCHEME_TAGS
