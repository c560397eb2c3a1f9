import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "convergence_study.py"


def test_convergence_study_prints_its_three_tables(capsys):
    spec = importlib.util.spec_from_file_location("convergence_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    for header in (
        "== RK4 error vs exact solution (segment hexagon, order 1, T=1) ==",
        "== fitted decay slopes vs dominant eigenvalues (pentagon) ==",
        "== distance to the difference-flow target at t=2 ==",
    ):
        assert header in out
    rk4_rows = [line for line in out.splitlines() if line.strip().startswith("dt=")]
    assert len(rk4_rows) == 4
    assert all("order=4.0" in row for row in rk4_rows[1:])
    n5 = next(line for line in out.splitlines() if line.strip().startswith("n=5:"))
    assert "(faster with m)" in n5
