import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_exact_certificates_demo(capsys):
    runpy.run_path(str(DEMOS / "02_exact_certificates.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "depth certificate: passed=True" in out
    assert "corrupted evaluator: passed=False, caught at x=1100 y=0100" in out
