"""The README's documented entry points exist under the names it gives."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _section(text, heading):
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def _documented_names():
    """(module, dotted name) for every name the entry-point sections cite."""
    section = _section(README.read_text(encoding="utf-8"), "## Library entry points")
    block = re.search(r"from qtradeoff import \((.*?)\)", section, re.S).group(1)
    pairs = [("qtradeoff", n.strip()) for n in block.split(",") if n.strip()]
    bullets = section[section.index("Other modules:"):]
    for bullet in re.split(r"\n- ", "\n" + bullets)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        pairs += [(module, name) for name in names]
    return pairs


def test_readme_cites_entry_points():
    pairs = _documented_names()
    assert ("qtradeoff", "nhcrb_sdp") in pairs
    assert ("qtradeoff.tradeoff", "surface_scan") in pairs
    assert ("qtradeoff.linalg", "is_psd") in pairs


@pytest.mark.parametrize("module,name", _documented_names())
def test_readme_names_resolve(module, name):
    assert NAME.fullmatch(name), f"`{name}` under {module} is not a Python name"
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
