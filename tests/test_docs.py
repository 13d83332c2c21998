"""The documented surface: the README's Python examples run as written,
and every name a module exports in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hcfwm

README = Path(__file__).resolve().parents[1] / "README.md"


# the map_t600 thickness loop meets the gap pump at 1250 nm
@pytest.mark.filterwarnings("ignore:pump at .* is a gap:UserWarning")
def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Each block in a fresh namespace, with nothing of the checkout in
    the working directory."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_every_all_entry_resolves():
    modules = [hcfwm] + [
        importlib.import_module(f"hcfwm.{m.name}")
        for m in pkgutil.iter_modules(hcfwm.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert not missing
