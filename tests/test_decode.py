"""The reader choice in `decode_scenario`: orjson's document where it is
json's, json's everywhere else, so that every command prints what it
printed when json read every file."""

import importlib.util
import json
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest

import fpf.scenario
from fpf.cli import main
from fpf.scenario import QUERY_KINDS, decode_scenario, random_scenario, serialize_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _byte_sweep():
    sys.path.insert(0, str(ROOT / "scripts"))  # byte_sweep imports bench_ab beside it
    try:
        spec = importlib.util.spec_from_file_location("byte_sweep", ROOT / "scripts" / "byte_sweep.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    return module


def _float_strings() -> list[str]:
    """About 20,000 decimal strings of finite doubles: random bit patterns
    in four spellings, near-halfway cases, and random short mantissas."""
    rng = np.random.default_rng(33)
    doubles = rng.integers(0, 2**64, size=2_500, dtype=np.uint64).view(np.float64)
    doubles = doubles[np.isfinite(doubles)][:2_000].tolist()
    strings = ["0.0", "-0.0", "-0e0", "5e-324", "1.7976931348623157e308", "2.2250738585072011e-308"]
    for x in doubles:
        strings += [repr(x), f"{x:.17e}", f"{x:.20e}", f"{x:.25e}"]
    # the midpoint of two neighbouring doubles to 40 digits, and +-1 in its 40th digit
    with localcontext() as ctx:
        ctx.prec = 60
        for x in map(abs, doubles):
            mid = (Decimal(x) + Decimal(float(np.nextafter(x, np.inf)))) / 2
            near = Decimal(f"{mid:.39e}")
            step = Decimal(1).scaleb(near.adjusted() - 39)
            strings += [f"{near:e}", f"{near - step:e}", f"{near + step:e}"]
    for _ in range(6_000):
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 31)))))
        text = f"{'-' if rng.integers(2) else ''}{digits[0]}.{digits[1:] or '0'}e{int(rng.integers(-340, 311))}"
        if abs(float(text)) < float("inf"):  # beyond float range orjson refuses, and json reads
            strings.append(text)
    return strings


def test_floats_decode_bit_for_bit_like_float():
    strings = _float_strings()
    assert len(strings) > 19_000
    text = ("[" + ",".join(strings) + "]").encode()
    assert fpf.scenario._fast_document(text) is not None  # orjson reads it
    got = np.array(decode_scenario(text), dtype=np.float64)
    want = np.array([float(s) for s in strings], dtype=np.float64)
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


def _run(capsys, path):
    code = main(["run", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _fault_cases():
    """(base, site index) pairs: the chain base with every number site, so
    that each of the five int-or-float fields shows its fault, and every
    other base with a site of its own."""
    bases = [p.read_text() for p in sorted(SCENARIOS.glob("*.json")) + sorted(SCENARIOS.glob("gallery/*.json"))]
    bases += [serialize_scenario(random_scenario(0, 3, 2, kind)) for kind in QUERY_KINDS]
    chain = serialize_scenario(random_scenario(1, 3, 2, "chain"))
    return [(chain, i) for i in range(len(_byte_sweep().SITES))] + list(zip(bases, range(len(bases))))


def test_fault_classes_print_what_json_reading_prints(capsys, monkeypatch, tmp_path):
    sweep = _byte_sweep()
    path = tmp_path / "fault.json"
    seen = set()
    for text, index in _fault_cases():
        for cls, data in sweep.fault_copies(text, index):
            path.write_bytes(data)
            fast = _run(capsys, path)
            with monkeypatch.context() as patched:
                patched.setattr(fpf.scenario, "_fast_document", lambda text: None)  # json reads every file
                assert fast == _run(capsys, path), (cls, data[:200])
            seen.add(cls.split(":")[0])
    assert seen == {"big-int", "non-finite", "surrogate", "bom", "invalid-utf8", "trailing",
                    "duplicate-key", "deep-ignored"}


@pytest.mark.parametrize(
    "where, value",
    [("schema", -(2**63) - 1), ("dim", 2**64), ("query.kind", -(2**63) - 1),
     ("query.selection", -(2**63) - 1), ("tolerances.unitary", -(2**63) - 1)],
)
def test_the_five_fields_keep_their_integers(capsys, tmp_path, where, value):
    # orjson reads these as floats; -2**63 - 1 rounds to -2.0**63 exactly,
    # so only a strict low end sends it to json
    text = serialize_scenario(random_scenario(1, 3, 2, "chain"))
    path = tmp_path / "doc.json"
    path.write_bytes(_byte_sweep()._with(text, where, value))
    assert fpf.scenario._fast_document(path.read_bytes()) is None
    code, out, err = _run(capsys, path)
    assert code == 2 and out == "" and str(abs(value)) in err


def test_a_million_levels_is_one_syntax_error_line(tmp_path):
    # in a child process: an orjson that read these would crash the process
    files = []
    for name, data in [("list", b"[" * 10**6 + b"]" * 10**6), ("object", b'{"a":' * 10**6 + b"1" + b"}" * 10**6)]:
        files.append(tmp_path / f"{name}.json")
        files[-1].write_bytes(data)
    commands = [[command, str(f)] for f in files for command in ("run", "validate")]
    # a child that dies reads its signal as a negative exit code
    for code, out, err in _byte_sweep().child_calls(ROOT, commands):
        assert code == 2 and out == "", (code, err[-2000:])
        assert len(err.splitlines()) == 1 and err.startswith("SYNTAX_ERROR: scenario cannot be decoded")


def test_orjson_reads_integers_in_int64_and_uint64_exactly():
    # the fast path leaves these to orjson, so its integers must be json's
    for value in (-(2**63), -1, 0, 2**63 - 1, 2**63, 2**64 - 1):
        assert type(orjson.loads(str(value))) is int and orjson.loads(str(value)) == value
    assert type(orjson.loads(str(2**64))) is float  # why the five fields are checked
    assert json.loads(str(2**64)) == 2**64
