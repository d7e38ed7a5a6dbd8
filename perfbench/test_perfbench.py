"""The benchmark's own tests: every check rejects a planted wrong answer.

Each test runs a workload's round on small inputs, confirms that its
check passes on the program's real answers, then plants one wrong
answer and confirms that the check reports it.  Run with

    python3 -m pytest perfbench -q
"""

import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest

import reference as ref
import run
import workloads
from workloads import WORKLOADS

pw = workloads.import_polyweight()


class Recorder:
    """The part of ``run.Session`` a round needs, without timing."""

    def __init__(self):
        self.failed = 0

    def call(self, name, fn, *args, expect=(), **kwargs):
        try:
            return fn(*args, **kwargs)
        except expect as exc:
            return exc


def answers(workload, inputs):
    state = workload.build(pw, inputs)
    return state, workload.run_round(pw, inputs, state, Recorder())


def planted(workload, inputs, state, outputs, edit):
    """The check's problems after ``edit`` changed a copy of the answers."""
    wrong = copy.deepcopy(outputs)
    edit(wrong)
    return workload.check(inputs, state, wrong)


def set_item(seq, index, value):
    seq[index] = value


# -- reference ---------------------------------------------------------------


@pytest.mark.parametrize("spec", ["gl:3", "gsp:4", "go:5", "levi:2,3"])
def test_reference_matches_program_on_a_box(spec):
    datum = pw.parse_group_spec(spec)
    fam = ref.family(spec)
    ctx = pw.ClassificationContext(datum, 2, 2)
    assert len(datum.weyl_group()) == fam.weyl_order
    for weight in ref.box(fam.n, 2):
        assert ref.phi(fam, weight) == ctx.phi(weight)
        assert ref.in_pr(fam, weight, 4) == pw.in_Pr(weight, ctx)


def test_class_key_tells_kernel_shifts_apart_from_other_moves():
    for spec in ("gsp:4", "go:5"):
        fam = ref.family(spec)
        kernel = pw.parse_group_spec(spec).lattice.kernel_basis
        weight = (1, 2, 0, 3, 1)[: fam.n]
        for vec in kernel:
            shifted = tuple(a + 3 * b for a, b in zip(weight, vec))
            assert ref.same_class(fam, weight, shifted)
        moved = (weight[0] + 1,) + weight[1:]
        assert not ref.same_class(fam, weight, moved)


def test_counts_and_orders():
    assert ref.pr_size(ref.family("go:5"), 4) == 32
    assert ref.pr_size(ref.family("go:5"), 9) == 405
    assert ref.pr_size(ref.family("gsp:4"), 3) == 27
    assert ref.family("go:8").weyl_order == 192
    assert ref.family("levi:1,2,3").weyl_order == 12


# -- certify -----------------------------------------------------------------


@pytest.fixture(scope="module")
def certified():
    workload = WORKLOADS["certify"]
    inputs = {"jobs": [("gl:2", 1, 2, 1), ("gsp:4", 1, 3, 1)]}
    state, outputs = answers(workload, inputs)
    assert workload.check(inputs, state, outputs) == []
    return workload, inputs, state, outputs


def _with_verdict(outputs, job, prop, field, value):
    radius, all_ok, verdicts = outputs[job]
    verdicts = list(verdicts)
    verdict = list(verdicts[prop])
    verdict[field] = value
    verdicts[prop] = tuple(verdict)
    outputs[job] = (radius, all_ok, tuple(verdicts))


@pytest.mark.parametrize("edit", [
    lambda o: _with_verdict(o, 0, 2, 2, 80),  # pair count one short
    lambda o: _with_verdict(o, 1, 0, 2, 82),  # box count one over
    lambda o: _with_verdict(o, 0, 1, 1, False),  # a property fails
    lambda o: _with_verdict(o, 1, 2, 3, True),  # a property skipped
    lambda o: set_item(o, 0, (2,) + o[0][1:]),  # another radius
    lambda o: set_item(o, 1, (o[1][0], False, o[1][2])),
    lambda o: set_item(o, -1, ((True,) * 5, o[-1][1])),  # go:8 passes (c-lower)
    lambda o: set_item(o, -1, (o[-1][0], ())),  # no witness
])
def test_certify_check_rejects(certified, edit):
    assert planted(*certified, edit)


# -- classify ----------------------------------------------------------------


@pytest.fixture(scope="module")
def classified():
    workload = WORKLOADS["classify"]
    full = workload.inputs(7)
    contexts = []
    for job in full["contexts"]:
        if (job["spec"], job["p"], job["r"]) in (
            ("gl:3", 2, 1), ("gsp:4", 3, 1), ("go:5", 2, 2)
        ):
            job = dict(job, radius=2, stream=job["stream"][:40])
            size = ref.box_size(ref.family(job["spec"]).n, 2)
            job["sample"] = [i for i in job["sample"] if i < size][:20] or [0]
            contexts.append(job)
    inputs = {"contexts": contexts, "orbits": full["orbits"][:1]}
    state, outputs = answers(workload, inputs)
    assert workload.check(inputs, state, outputs) == []
    return workload, inputs, state, outputs


def _stream_index(inputs, context, want):
    """Index of the first stream weight of ``context`` where ``want`` holds."""
    job = inputs["contexts"][context]
    fam = ref.family(job["spec"])
    prpow = job["p"] ** job["r"]
    for index, weight in enumerate(job["stream"]):
        if want(fam, weight, prpow):
            return index
    raise AssertionError("no stream weight fits")


def _edit_stream(context, want, field, change):
    def edit(outputs, inputs):
        index = _stream_index(inputs, context, want)
        sweep, flags, stream, digits = outputs[context]
        entry = list(stream[index])
        entry[field] = change(entry[field])
        stream[index] = tuple(entry)
    return edit


def _decomposable(fam, weight, prpow):
    return not ref.go_odd_unavailable(fam, weight, prpow)


def _move_lambda0(split):
    lam0, tilde = split
    return ((lam0[0] + 1,) + lam0[1:], tilde)


def _move_tilde(split):
    lam0, tilde = split
    return (lam0, (tilde[0] + 1,) + tilde[1:])


def _flip_flag(context, index, bits):
    def edit(outputs, inputs):
        outputs[context][1][index] ^= bits
    return edit


def _flip_sampled_flag(outputs, inputs):
    index = inputs["contexts"][1]["sample"][0]
    outputs[1][1][index] ^= 0b0100  # the range bit alone


def _gl_literal_flip(outputs, inputs):
    # A point outside the cone, marked a full member: the digit-set
    # property of the word holds, so only the closed form can object.
    flags = outputs[0][1]
    sample = set(inputs["contexts"][0]["sample"])
    index = next(i for i, w in enumerate(flags) if w == 0 and i not in sample)
    flags[index] = 0b1111


def _sweep_count(outputs, inputs):
    (checked, failures), *rest = outputs[2]
    outputs[2] = ((checked - 1, failures), *rest)


def _sweep_drop_failure(outputs, inputs):
    (checked, failures), *rest = outputs[2]
    outputs[2] = ((checked, failures[1:]), *rest)


def _sweep_count_decompositions(outputs, inputs):
    (checked, failures), *rest = outputs[2]
    lam, _ = failures[0]
    outputs[2] = ((checked, ((lam, 1),) + failures[1:]), *rest)


def _digits(change):
    def edit(outputs, inputs):
        sweep, flags, stream, digits = outputs[1]
        outputs[1] = (sweep, flags, stream, change(list(digits)))
    return edit


def _orbit(change):
    def edit(outputs, inputs):
        outputs[-1] = change(outputs[-1])
    return edit


CLASSIFY_PLANTS = [
    _edit_stream(0, lambda f, w, q: True, 0, lambda v: not v),  # in_Pr flipped
    _edit_stream(1, lambda f, w, q: True, 0, lambda v: not v),
    _edit_stream(1, _decomposable, 1, _move_lambda0),  # lambda0 leaves P_r or class
    _edit_stream(0, _decomposable, 1, _move_tilde),  # recombination leaves the class
    _edit_stream(2, ref.go_odd_unavailable, 1, lambda v: ((0,) * 5, (0,) * 5)),
    _edit_stream(2, _decomposable, 1, lambda v: "unavailable"),
    _edit_stream(1, lambda f, w, q: True, 2, lambda v: not v),  # simple flipped
    _flip_flag(1, 5, 0b1000),  # literal bit disagrees with the conjunction
    _flip_sampled_flag,
    _gl_literal_flip,
    _sweep_count,
    _sweep_drop_failure,
    _sweep_count_decompositions,
    _digits(lambda d: d[:-1]),  # one class short
    _digits(lambda d: d[:-1] + [tuple(c + 1 for c in d[0])]),  # a class outside
    _digits(lambda d: d[:-1] + [tuple(a + b for a, b in zip(d[0], (1, -1, -1, 1)))]),
    _orbit(lambda o: (o[0][1:], o[1])),  # orbit slice misses a class
    _orbit(lambda o: (o[0], (not o[1][0],) + o[1][1:])),  # shift verdict flipped
    _orbit(lambda o: (o[0], o[1][:2] + (o[1][2] + 1, o[1][3]))),  # orbit size
    _orbit(lambda o: (o[0], o[1][:3] + (o[1][3] + 1,))),  # shift bound
]


@pytest.mark.parametrize("edit", CLASSIFY_PLANTS)
def test_classify_check_rejects(classified, edit):
    workload, inputs, state, outputs = classified
    assert planted(workload, inputs, state, outputs, lambda o: edit(o, inputs))


# -- build -------------------------------------------------------------------


@pytest.fixture(scope="module")
def built():
    workload = WORKLOADS["build"]
    inputs = {"jobs": [("gsp:6", 2, 1), ("go:8", 3, 1), ("levi:1,2", 2, 2),
                       ("gl:4", 3, 2), ("go:7", 2, 1)]}
    state, outputs = answers(workload, inputs)
    assert workload.check(inputs, state, outputs) == []
    return workload, inputs, state, outputs


def _entry(index, field, value):
    def edit(outputs):
        entry = list(outputs[index])
        entry[field] = value
        outputs[index] = tuple(entry)
    return edit


@pytest.mark.parametrize("edit", [
    _entry(0, 2, 47),  # Weyl order of gsp:6 is 48
    _entry(3, 2, 23),  # gl:4 has 24
    _entry(1, 1, (True,) * 5),  # go:8 passing (c-lower)
    _entry(4, 1, (True, True, False, True, True)),
    _entry(2, 3, 2),  # context rank of levi:1,2 is 3
    _entry(1, 3, 5),  # go:8 has no context
    _entry(0, 0, 5),  # ambient dimension
])
def test_build_check_rejects(built, edit):
    assert planted(*built, edit)


# -- cli ---------------------------------------------------------------------


def in_process(argv):
    """(exit code, stdout bytes, stderr bytes) of the CLI run in this process."""
    from polyweight import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _cli_answers():
    requests = WORKLOADS["cli"].inputs(11)["requests"]
    requests.append(["decompose", "--group", "go:5", "--p", "2", "--r", "1",
                     "--weight=0,1,0,0,0"])  # half pairing 1 mod 2: unavailable
    requests.append(["classify", "--group", "go:5", "--p", "2", "--r", "1",
                     "--weight=0,1,0,0,0"])
    return [(argv, in_process(argv)) for argv in requests]


CLI_ANSWERS = _cli_answers()


def test_cli_answers_pass():
    for argv, (code, out, err) in CLI_ANSWERS:
        problems = workloads.check_cli_answer(argv, code, out, err, pw.kernel_backend_name)
        assert problems == [], (argv, problems)


def _json_edit(command, change):
    def edit(code, out, err):
        payload = json.loads(out)
        change(payload)
        return code, json.dumps(payload).encode(), err
    return command, edit


def _bump(path):
    def change(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]]
        node[path[-1]] = (not value) if isinstance(value, bool) else (
            [value[0] + 1] + value[1:] if isinstance(value, list) else value + 1
        )
    return change


CLI_PLANTS = [
    _json_edit("classify", _bump(["result", "in_Pr"])),
    _json_edit("classify", _bump(["result", "phi"])),
    _json_edit("classify", _bump(["result", "is_restricted"])),
    _json_edit("decompose", _bump(["result", "lambda0"])),
    _json_edit("decompose", _bump(["result", "phi_lambda_tilde"])),
    _json_edit("enumerate-pr", _bump(["result", "count"])),
    _json_edit("enumerate-pr", lambda p: p["result"]["elements"].pop()),
    _json_edit("validate", _bump(["result", "c_lower"])),
    _json_edit("assumption-check", lambda p: p["result"]["properties"][2].update(checked=1)),
    _json_edit("assumption-check", _bump(["result", "all_ok"])),
    _json_edit("counterexample", _bump(["result", "phi_lambda0_shifted"])),
    _json_edit("counterexample", _bump(["result", "weyl_order"])),
    _json_edit("orbit-shift", _bump(["result", "orbit_size"])),
    _json_edit("orbit-shift", _bump(["result", "shift_bound"])),
    _json_edit("orbit-shift", _bump(["result", "ok"])),
    _json_edit("classify", lambda p: p.update(backend="elsewhere")),
    _json_edit("validate", lambda p: p.update(command="classify")),
    ("validate", lambda code, out, err: (3, b"", b"error: no")),  # a wrong exit
    ("counterexample", lambda code, out, err: (code, out[:-20], err)),  # not JSON
]


@pytest.mark.parametrize("command,edit", CLI_PLANTS)
def test_cli_check_rejects(command, edit):
    argv, (code, out, err) = next(a for a in CLI_ANSWERS if a[0][0] == command)
    problems = workloads.check_cli_answer(argv, *edit(code, out, err), pw.kernel_backend_name)
    assert problems


def test_cli_check_requires_the_documented_exit_for_an_undecomposable_class():
    argv, (code, out, err) = CLI_ANSWERS[-2]
    assert code == 4
    assert workloads.check_cli_answer(argv, 0, b"{}", b"", None)


# -- the runner --------------------------------------------------------------


@pytest.fixture
def fast_cli(monkeypatch, tmp_path):
    """The cli workload with in-process invocations and no set-up probes."""
    monkeypatch.setattr(run, "setup_probe_child", lambda name, seed: 0.05)
    monkeypatch.setattr(
        workloads.Cli, "_invoke", lambda self, argv, env: in_process(argv)
    )
    monkeypatch.setattr(run, "OUT", tmp_path)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_runner_reports_a_correct_run(fast_cli, capsys):
    args = ["--workload", "cli", "--seed", "3", "--seconds", "0.01", "--trace", "0"]
    assert run.main(args) == 0
    result = _last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mib"}


def test_runner_rejects_output_that_changes_between_rounds(fast_cli, monkeypatch, capsys):
    first_round = len(WORKLOADS["cli"].inputs(3)["requests"])
    calls = []

    def drifting(self, argv, env):
        code, out, err = in_process(argv)
        calls.append(argv)
        if len(calls) > first_round:
            out = out.replace(b"  ", b" ", 1)
        return code, out, err

    monkeypatch.setattr(workloads.Cli, "_invoke", drifting)
    # Each clock reading is 1 ms after the last, so a round of seven
    # operations reads as about 15 ms and a 20 ms run makes two rounds.
    ticks = iter(range(10**9))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(ticks) * 0.001)
    args = ["--workload", "cli", "--seed", "3", "--seconds", "0.02", "--trace", "0"]
    assert run.main(args) == 1
    assert len(calls) == 2 * first_round
    assert _last_json(capsys)["correct"] is False


def test_runner_counts_a_raising_operation_as_failed_and_wrong(fast_cli, monkeypatch, capsys):
    def raising(self, argv, env):
        if argv[0] == "validate":
            raise RuntimeError("planted")
        return in_process(argv)

    monkeypatch.setattr(workloads.Cli, "_invoke", raising)
    args = ["--workload", "cli", "--seed", "3", "--seconds", "0.01", "--trace", "0"]
    assert run.main(args) == 1
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["failed"] >= 1 and result["correct"] is False
    assert "WRONG operation process.invoke raised RuntimeError: planted" in out


def test_setup_probe_prints_seconds():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "setup_probe.py"), "build", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert 0 < float(proc.stdout) < 60


def test_runner_needs_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "SRC", tmp_path / "src")
    args = ["--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(args) == 2
    assert capsys.readouterr().out == ""
