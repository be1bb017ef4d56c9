"""The README runs and reads as written: its quick start, its config keys,
its list fields, its artifact table, its self-test list, its stop list and
its layout."""

import dataclasses
import re
from pathlib import Path

import numpy as np

from ibsmamp import estimators, harness, selftest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    final_mse, final_db = map(float, capsys.readouterr().out.split())
    assert 0.0 < final_mse < 1e-3
    assert np.isclose(final_db, 10 * np.log10(final_mse))


def test_readme_self_test_lists_every_check():
    section = README.read_text().split("## Self test\n", 1)[1].split("\n## ", 1)[0]
    names = [fn.__name__.removeprefix("check_") for fn in selftest._CHECKS]
    assert int(re.search(r"runs (\d+) ", section).group(1)) == len(names)
    assert [name for name in names if f"`{name}`" not in section] == []


def test_readme_lists_every_config_key():
    text = " ".join(README.read_text().split())
    for experiment, cls in harness.CONFIG_TYPES.items():
        listed = re.search(rf"`{experiment}` accepts: (.*?)\. ", text).group(1)
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(cls)]


def test_readme_names_every_list_field():
    text = " ".join(README.read_text().split())
    listed = re.search(r"List fields \((.*?)\) must be JSON lists", text).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(
        {f.name for cls in harness.CONFIG_TYPES.values() for f in dataclasses.fields(cls)
         if f.type.startswith("tuple[")})


def test_readme_artifact_table_matches_columns():
    section = README.read_text().split("### Artifacts\n", 1)[1].split("\n#", 1)[0]
    table = re.findall(r"^\| `(\w+\.csv)` \| `([^`]*)` \|$", section, flags=re.M)
    assert [(name, tuple(columns.split(", "))) for name, columns in table] == [
        file for _, _, files in harness.EXPERIMENTS.values() for file in files]


def test_readme_stop_list_matches_stop_reasons():
    section = README.read_text().split("## Tuning notes\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^  - `([\w-]+)`: ", section, flags=re.M)
    assert tuple(listed) == estimators.STOP_REASONS


def test_readme_layout_lists_every_module():
    block = README.read_text().split("## Layout\n", 1)[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    modules = [path.name for path in (README.parent / "src" / "ibsmamp").glob("*.py")]
    assert sorted(listed) == sorted(set(modules) - {"__init__.py"})
