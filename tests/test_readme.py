"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    final_mse, final_db = map(float, capsys.readouterr().out.split())
    assert 0.0 < final_mse < 1e-3
    assert np.isclose(final_db, 10 * np.log10(final_mse))
