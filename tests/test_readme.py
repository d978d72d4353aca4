"""The README's config example and kind list match the library."""

import json
import re
from pathlib import Path

from hesnil import ExperimentConfig
from hesnil.vanishing import GENERATOR_KINDS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_config_example_loads():
    block = re.search(r"```json\n(.*?)```", README, re.S)
    assert block is not None
    cfg = ExperimentConfig.from_dict(json.loads(block.group(1)))
    assert cfg.generator_kind in GENERATOR_KINDS


def test_readme_lists_every_kind():
    line = re.search(r"`kind` is one of (.*?)\.", README, re.S)
    assert line is not None
    assert tuple(re.findall(r"`(\w+)`", line.group(1))) == GENERATOR_KINDS
