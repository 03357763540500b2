"""Golden outputs: exact stdout bytes and exit codes of fast commands.

Each file under ``tests/golden/`` is the standard output of one command.
A refactor must reproduce them byte for byte; replace a file only for a
deliberate change of output, and say so in the change.
"""

import hashlib
from pathlib import Path

import pytest

from f2moduli.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# file name, arguments, exit code
GOLDEN = [
    ("mv_2+2.md", "mv --split 2+2", 0),
    ("mv_2+2.json", "mv --split 2+2 --format json", 0),
    ("mv_2+2.csv", "mv --split 2+2 --format csv", 0),
    ("mv_2+2_seed1_samples2.json", "mv --split 2+2 --seed 1 --samples 2 --format json", 0),
    # the benchmark's other split-seeded command: dense elimination at seeds 1 and 2
    ("mv_1+4_seed1_samples2.json", "mv --split 1+4 --seed 1 --samples 2 --format json", 0),
    ("mv_2+2_degree9.json", "mv --split 2+2 --degree 9 --format json", 0),
    ("mv_1+3.json", "mv --split 1+3 --format json", 0),
    ("mv_1+2_seed1_samples3.md", "mv --split 1+2 --seed 1 --samples 3", 0),
    ("mv_1+2_degree4_describe.md", "mv --split 1+2 --degree 4 --describe", 0),
    # the genus-3 max-rank hypothesis does not glue to genus 5
    ("mv_2+3.json", "mv --split 2+3 --format json", 2),
    ("mv_3+4.json", "mv --split 3+4 --format json", 2),
    # dense elimination at seed 1 on both rank engines: most of its
    # matrices are ranked as int rows, the largest by strips
    ("mv_3+3_seed1.json", "mv --split 3+3 --seed 1 --format json", 2),
    ("infer_1+2_nu_9^2.json", "infer --split 1+2 --unknown nu_9^2 --format json", 0),
    ("infer_1+1_nu_2^1_degree3.md", "infer --split 1+1 --unknown nu_2^1 --at-degree 3", 0),
    ("infer_2+2_nu_5^2.json", "infer --split 2+2 --unknown nu_5^2 --format json", 0),
    # a full 21-degree scan on a hypothesis genus: no degree pins nu_9^3
    ("infer_1+3_nu_9^3.json", "infer --split 1+3 --unknown nu_9^3 --format json", 0),
    # a full 33-degree scan on a genus-5 hypothesis bundle: no degree pins nu_14^5
    ("infer_1+5_nu_14^5.json", "infer --split 1+5 --unknown nu_14^5 --format json", 0),
    ("verify_6.json", "verify --max-genus 6 --format json", 0),
    # the benchmark's verify-deep command
    ("verify_40.json", "verify --max-genus 40 --format json", 0),
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


# arguments, sha256 of the standard output (exit code 0): tables above
# genus 40, too large to keep as files, recorded from the per-degree recursion
GOLDEN_SHA256 = [
    ("betti --genus 200 --format json",
     "4af12718744f93e4e7973a34d6890f1c01611bb029a2eaa7d7bc2bdbe99c531c"),
    ("betti --genus 200 --field q --format json",
     "3abff1320ee8826d4b7428a93e7f2289328312902cf6a9a4ad777837c19a4041"),
    ("tables --max-genus 30 --full --format json",
     "50a4e8b667d296bd66c6de95dbe418965165a4f0a6417eeaaea4facbfc2de212"),
    # three times the benchmark's verify-deep genus: the boundary ladders
    # and the recursion steps, recorded before they moved to integer rows
    ("verify --max-genus 120 --format json",
     "00c195b294a68a1f6621c8ff83dbdb8a8a1a8abdffd2b7bcca329c6a470d20b4"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_SHA256, ids=[g[0] for g in GOLDEN_SHA256])
def test_golden_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
