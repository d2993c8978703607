"""Every package name README.md quotes exists, outside its API changes list."""

import importlib
import pkgutil
import re
from pathlib import Path

import codespectra

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {
    info.name: importlib.import_module(f"codespectra.{info.name}")
    for info in pkgutil.iter_modules(codespectra.__path__)
}
UPPER_CASE = re.compile(r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+")


def _quoted(text):
    """Backticked spans of text, leaving out fenced blocks and the
    `## API changes` section, which names what is gone."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    text = re.sub(r"^## API changes\n.*?(?=^## |\Z)", "", text, flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", text)


def _unresolved(text):
    missing = []
    for span in _quoted(text):
        parts = span.removeprefix("codespectra.").split(".")
        if UPPER_CASE.fullmatch(span):
            if not any(hasattr(module, span) for module in MODULES.values()):
                missing.append(span)
        elif len(parts) == 2 and parts[0] in MODULES and all(map(str.isidentifier, parts)):
            if not hasattr(MODULES[parts[0]], parts[1]):
                missing.append(span)
        elif span.startswith("codespectra.") and len(parts) == 1 and parts[0] not in MODULES:
            if not hasattr(codespectra, parts[0]):
                missing.append(span)
    return missing


def test_readme_quotes_only_names_that_exist():
    assert _quoted(README.read_text())
    assert _unresolved(README.read_text()) == []


def test_a_removed_name_is_flagged_outside_api_changes_only():
    text = "`spectra.NO_SUCH_LIMIT`, `NO_SUCH_LIMIT`, `codespectra.nosuch` and `spectra.ENUM_LIMIT`\n"
    assert _unresolved(text) == ["spectra.NO_SUCH_LIMIT", "NO_SUCH_LIMIT", "codespectra.nosuch"]
    assert _unresolved("## API changes\n\n- `spectra.NO_SUCH_LIMIT` is gone.\n") == []
    assert _unresolved("```\n`NO_SUCH_LIMIT`\n```\n") == []
