"""The library path README.md documents: its python blocks run as written,
one after the other, and its JSON scenario loads."""

import pathlib
import re

from epiwave.app.scenario import load_scenario

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["wave"].residual < 1e-5
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_json_scenario_loads(tmp_path):
    (block,) = _blocks("json")
    path = tmp_path / "scenario.json"
    path.write_text(block)
    cfg = load_scenario(str(path))
    assert cfg.grid.cell_points == 64 and cfg.grid.window_radius == 12
