import ast
import re
from pathlib import Path

import ceofdm
from ceofdm import cli, closed_form, eoa, gbf, oracle, sidelobes, waveform

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from ceofdm import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ceofdm.__all__)
    assert len(set(ceofdm.__all__)) == len(ceofdm.__all__)
    # the kernels take the coefficient array and T and return bare arrays,
    # and the reports are the dicts their JSON files hold, so the
    # coefficient and result records and the spec wrappers are gone, and so
    # are the single-metric sidelobe helpers behind report_from_acf and the
    # oracle's real/imaginary Simpson split, the coefficient engine's
    # per-order helper is merged into its one loop, the CLI's stage
    # list is part of its run object, and OutOfSupport.check is the one
    # support check
    for module, name in ((oracle, "af_numeric"), (oracle, "_integrate"),
                         (gbf, "resynthesize"),
                         (gbf, "_coefficients_at_order"),
                         (closed_form, "SpectrumSamples"),
                         (closed_form, "AmbiguitySurface"),
                         (sidelobes, "MetricSurface"),
                         (gbf, "GbfCoefficients"),
                         (closed_form, "_resolve_coeffs"),
                         (sidelobes, "sidelobe_report"),
                         (sidelobes, "mainlobe_null"), (sidelobes, "pslr"),
                         (sidelobes, "isl"),
                         (sidelobes, "SidelobeReport"),
                         (eoa, "EoaParameters"),
                         (waveform, "sample_times"), (cli, "_Stages"),
                         (waveform, "_check_support")):
        assert not hasattr(module, name)
        assert name not in ceofdm.__all__


def test_readme_programmatic_use_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Programmatic use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0].startswith("{'beta2'")


def _owners(tree, attr):
    # the innermost function around each access of the attribute attr
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef)
                  else owner)

    visit(tree, None)
    return found


def test_one_fft_length_rule_and_no_linear_algebra():
    # bit_length is called in waveform._fft_len alone and no module takes a
    # log2, so every FFT length and the oracle's lattice size come from that
    # one rule; and no module reaches numpy's linalg
    owners = []
    for path in sorted(Path(ceofdm.__file__).parent.glob("*.py")):
        text = path.read_text()
        owners += [(path.stem, name)
                   for name in _owners(ast.parse(text), "bit_length")]
        assert "linalg" not in text and "log2" not in text, path.name
    assert owners == [("waveform", "_fft_len")]
