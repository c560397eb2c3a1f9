import importlib.util
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_figures.py"

FLOW_FIGURES = [f"{name}_m{m}.svg" for name in ("pentagon", "hexagon") for m in (1, 2, 3)]
YAU_FIGURES = [
    "yau_pentagon_to_regular_m2.svg",
    "yau_regular_to_irregular_m1.svg",
    "yau_pentagon_to_segment_m2.svg",
    "yau_quad_to_pentagon_duplicate_m1.svg",
    "yau_pentagon_to_triangle_duplicate_m3.svg",
    "yau_pentagon_to_triangle_midpoint_m3.svg",
]


def test_make_figures_writes_the_gallery(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("make_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["make_figures.py", str(tmp_path)])
    module.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FLOW_FIGURES + YAU_FIGURES)
    for name in FLOW_FIGURES:  # 8 samples over the initial polygon
        assert (tmp_path / name).read_text().count("<polygon") == 9
    for name in YAU_FIGURES:  # 8 samples, the initial polygon and the target
        text = (tmp_path / name).read_text()
        assert text.count("<polygon") == 10
        assert "stroke-dasharray" in text
    assert capsys.readouterr().out.count("wrote ") == 12
