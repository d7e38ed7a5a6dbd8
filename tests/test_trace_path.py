"""The benchmark's per-layer trace finds every attribute it wraps.

``perfbench/tracing.py`` rebinds module and class attributes of the
package for the length of a traced round (``Tracer.recording``).  A
rename in ``src/`` would stop every ``--trace 1`` run, so this test
enters and leaves a recording and checks each wrapped attribute.
"""

import importlib.util
import pathlib

import polyweight
from polyweight import cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recording_wraps_and_restores_every_patched_attribute(capsys):
    tracer = load_tracing().Tracer("tier-1")
    targets = [(owner, attr) for owner, attr, _ in tracer._patches(polyweight)]
    targets.append((polyweight.GroupDatum, "weyl_group"))
    originals = [getattr(owner, attr) for owner, attr in targets]
    assert all(callable(original) for original in originals)

    with tracer.recording(polyweight):
        wrapped = [getattr(owner, attr) for owner, attr in targets]
        assert cli.main(["validate", "--group", "gl:2"]) == 0
    capsys.readouterr()

    for (owner, attr), original, wrapper in zip(targets, originals, wrapped):
        assert wrapper is not original, attr
        assert wrapper.__wrapped__ is original, attr
        assert getattr(owner, attr) is original, attr
    assert {span[0] for span in tracer.spans} == {"groups.build", "groups.validate"}
