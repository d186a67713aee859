"""Command-line interface."""

import logging

import pytest

from repro.cli import _pipeline_selfcheck, main
from repro.library import CONTACT_ROW_SOURCE, DIFF_PAIR_SOURCE
from repro.tech import generic_bicmos_1u


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "row.pldl"
    path.write_text(
        CONTACT_ROW_SOURCE + 'gatecon = ContactRow(layer = "poly", W = 1)\n',
        encoding="utf-8",
    )
    return path


def test_tech_list(capsys):
    assert main(["tech", "list"]) == 0
    out = capsys.readouterr().out
    assert "generic_bicmos_1u" in out
    assert "generic_cmos_05u" in out


def test_tech_dump_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "t.tech"
    assert main(["tech", "dump", "generic_bicmos_1u", "-o", str(out_file)]) == 0
    assert out_file.exists()
    # A dumped file is accepted anywhere a technology is expected.
    assert main(["tech", "dump", str(out_file)]) == 0
    assert "RULE WIDTH poly" in capsys.readouterr().out


def test_tech_unknown_exits():
    with pytest.raises(SystemExit):
        main(["tech", "dump", "bogus_tech"])


def test_build_with_outputs(source_file, tmp_path, capsys):
    gds = tmp_path / "row.gds"
    svg = tmp_path / "row.svg"
    dump = tmp_path / "row.txt"
    status = main([
        "build", str(source_file), "ContactRow",
        "-p", "layer=poly", "-p", "W=1", "-p", "L=10",
        "--gds", str(gds), "--svg", str(svg), "--dump", str(dump), "--drc",
    ])
    assert status == 0
    assert gds.exists() and svg.exists() and dump.exists()
    out = capsys.readouterr().out
    assert "ContactRow" in out and "DRC clean" in out


def test_build_bad_param(source_file):
    with pytest.raises(SystemExit):
        main(["build", str(source_file), "ContactRow", "-p", "oops"])


def test_run_reports_globals(source_file, capsys):
    assert main(["run", str(source_file)]) == 0
    out = capsys.readouterr().out
    assert "gatecon: layout" in out


@pytest.mark.parametrize("command, body, message", [
    ("run", "x = y", "line 2: unknown name 'y'"),
    ("run", "x = 1 / 0", "line 2: division by zero"),
    ("translate", "x = y", "line 2: unknown name 'y'"),
])
def test_pldl_error_is_one_line_not_a_traceback(
    command, body, message, tmp_path, monkeypatch, capsys
):
    from repro.obs.ledger import Ledger

    monkeypatch.setenv("REPRO_LEDGER", "1")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    path = tmp_path / "bad.pldl"
    path.write_text(f"ENT Main()\n  {body}\nEND\nm = Main()\n", encoding="utf-8")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == f"{path}: {message}"
    assert "Traceback" not in captured.out + captured.err
    with Ledger(tmp_path / "ledger") as ledger:
        assert ledger.last(command).status == 1


def test_translate_to_stdout(source_file, capsys):
    assert main(["translate", str(source_file)]) == 0
    assert "def ContactRow" in capsys.readouterr().out


def test_drc_flow(source_file, tmp_path, capsys):
    gds = tmp_path / "row.gds"
    main([
        "build", str(source_file), "ContactRow",
        "-p", "layer=pdiff", "-p", "W=4", "--gds", str(gds),
    ])
    capsys.readouterr()
    # Ignore latch-up: a bare diffusion row has no substrate contacts.
    assert main(["drc", str(gds), "--no-latchup"]) == 0
    assert "DRC clean" in capsys.readouterr().out
    # With latch-up the unprotected diffusion fails → exit status 1.
    assert main(["drc", str(gds)]) == 1


def test_drc_missing_file():
    with pytest.raises(SystemExit):
        main(["drc", "no_such_file.gds"])


def test_render(source_file, tmp_path):
    dump = tmp_path / "row.txt"
    main([
        "build", str(source_file), "ContactRow",
        "-p", "layer=poly", "--dump", str(dump),
    ])
    svg = tmp_path / "row.svg"
    assert main(["render", str(dump), "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_session(tmp_path):
    source = tmp_path / "pair.pldl"
    source.write_text(DIFF_PAIR_SOURCE + "d = DiffPair(W = 8, L = 1)\n")
    page = tmp_path / "session.html"
    assert main(["session", str(source), "-o", str(page)]) == 0
    assert "graphical view" in page.read_text()


def test_build_cif_output(source_file, tmp_path):
    cif = tmp_path / "row.cif"
    assert main([
        "build", str(source_file), "ContactRow",
        "-p", "layer=poly", "-p", "W=1", "--cif", str(cif),
    ]) == 0
    assert cif.read_text().rstrip().endswith("E")


def test_rc_report(tmp_path, capsys):
    from repro.io import dumps_object
    from repro.library import poly_resistor
    from repro.tech import generic_bicmos_1u

    tech = generic_bicmos_1u()
    resistor = poly_resistor(tech, segments=3)
    dump = tmp_path / "res.txt"
    dump.write_text(dumps_object(resistor))
    assert main(["rc", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "R (ohm)" in out
    assert "body" in out  # the resistor body net appears with its R


def test_rc_no_nets(tmp_path, capsys):
    from repro.db import LayoutObject
    from repro.geometry import Rect
    from repro.io import dumps_object
    from repro.tech import generic_bicmos_1u

    obj = LayoutObject("X", generic_bicmos_1u())
    obj.add_rect(Rect(0, 0, 1000, 1000, "poly"))
    dump = tmp_path / "x.txt"
    dump.write_text(dumps_object(obj))
    assert main(["rc", str(dump)]) == 0
    assert "no labelled nets" in capsys.readouterr().out


def test_explain_clean_cell(capsys):
    assert main(["explain", "guarded_transistor"]) == 0
    assert "DRC clean" in capsys.readouterr().out


def test_explain_latchup_violations(capsys):
    # A bare transistor legitimately fails the latch-up rule (Fig. 1).
    assert main(["explain", "mos_transistor"]) == 1
    out = capsys.readouterr().out
    assert "LATCHUP subcontact" in out
    assert "from: MosTransistor" in out
    assert "fix:" in out


def test_explain_json_output(capsys):
    import json

    assert main(["explain", "mos_transistor", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload and payload[0]["kind"] == "latchup"
    assert payload[0]["rects"][0]["provenance"].startswith("MosTransistor")


def test_explain_unknown_cell():
    with pytest.raises(SystemExit):
        main(["explain", "bogus_cell"])


def test_report_command_writes_html(tmp_path, capsys):
    out = tmp_path / "report.html"
    assert main(["report", "mos_transistor", "-o", str(out)]) == 0
    html = out.read_text(encoding="utf-8")
    assert "<svg" in html and "</html>" in html
    assert "provenance coverage" in html
    assert "report →" in capsys.readouterr().out


def test_report_restores_process_recorder(tmp_path):
    from repro.obs import get_recorder

    before = get_recorder()
    assert main(["report", "mos_transistor", "-o",
                 str(tmp_path / "r.html")]) == 0
    assert get_recorder() is before
    assert not get_recorder().enabled


def test_selfcheck_logs_whether_the_order_search_was_exact():
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("repro.cli")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        _pipeline_selfcheck(generic_bicmos_1u())
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    lines = [r.getMessage() for r in records if "order search" in r.getMessage()]
    assert len(lines) == 1
    # Three steps are within the exhaustive limit: every order is covered.
    assert lines[0].endswith(", exact=True)")

