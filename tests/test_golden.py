"""Golden outputs: exact stdout bytes and exit codes of fast commands.

Each file under ``tests/golden/`` is the standard output of one command.
A refactor must reproduce them byte for byte; replace a file only for a
deliberate change of output, and say so in the change.
"""

from pathlib import Path

import pytest

from f2moduli.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# file name, arguments, exit code
GOLDEN = [
    ("mv_2+2.md", "mv --split 2+2", 0),
    ("mv_2+2.json", "mv --split 2+2 --format json", 0),
    ("mv_2+2_seed1_samples2.json", "mv --split 2+2 --seed 1 --samples 2 --format json", 0),
    ("mv_2+2_degree9.json", "mv --split 2+2 --degree 9 --format json", 0),
    ("mv_1+3.json", "mv --split 1+3 --format json", 0),
    ("mv_1+2_seed1_samples3.md", "mv --split 1+2 --seed 1 --samples 3", 0),
    ("mv_1+2_degree4_describe.md", "mv --split 1+2 --degree 4 --describe", 0),
    # the genus-3 max-rank hypothesis does not glue to genus 5
    ("mv_2+3.json", "mv --split 2+3 --format json", 2),
    ("mv_3+4.json", "mv --split 3+4 --format json", 2),
    ("infer_1+2_nu_9^2.json", "infer --split 1+2 --unknown nu_9^2 --format json", 0),
    ("infer_1+1_nu_2^1_degree3.md", "infer --split 1+1 --unknown nu_2^1 --at-degree 3", 0),
    ("infer_2+2_nu_5^2.json", "infer --split 2+2 --unknown nu_5^2 --format json", 0),
    ("verify_6.json", "verify --max-genus 6 --format json", 0),
    ("verify_2.md", "verify --max-genus 2", 0),
    ("serre.json", "serre --format json", 0),
    ("tables_6.json", "tables --max-genus 6 --format json", 0),
    ("profiles_2.json", "profiles --genus 2 --format json", 0),
    ("nplus_2.csv", "nplus --genus 2 --format csv", 0),
    ("betti_3.csv", "betti --genus 3 --format csv", 0),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, name, argv, code):
    assert main(argv.split()) == code
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / name).read_bytes()
