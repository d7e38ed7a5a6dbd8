"""The four workloads: their seeded inputs, timed rounds and checks.

Every workload is a closed loop with one client.  A round runs the
workload's fixed job list once, one call after another; the data and
contexts a round uses are built before its timer starts.  ``check``
compares a round's answers with ``reference``, which never calls the
program.  A check returns a list of problems, empty when every answer
agrees.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULI = ((2, 1), (3, 1), (2, 2), (3, 2))


class MissingProgram(RuntimeError):
    """The checkout holds no polyweight sources to measure."""


def import_polyweight():
    """Import polyweight from the checkout's ``src``, and only from there."""
    if not (SRC / "polyweight" / "__init__.py").is_file():
        raise MissingProgram(f"no polyweight package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polyweight

    if Path(polyweight.__file__).resolve().parent != SRC / "polyweight":
        raise MissingProgram(f"polyweight imported from {polyweight.__file__}")
    return polyweight


def plain(name, fn, *args, **kwargs):
    """The untraced stand-in for ``Tracer.call``."""
    return fn(*args, **kwargs)


class _Failed:
    def __repr__(self):
        return "FAILED"


# The answer of an operation that raised an undocumented exception.
FAILED = _Failed()


def _verdicts(report):
    return tuple(
        (v.name, v.ok, v.checked, v.skipped, v.witness) for v in report.properties
    )


class Certify:
    """Box certification of the functional's four properties."""

    name = "certify"
    # The criterion-5 instances at their default radii, then rank 6 and 7
    # at radius 1.
    INSTANCES = (
        ("gl:2", 3), ("gl:3", 3), ("gsp:4", 3), ("go:5", 2), ("levi:2,3", 2),
        ("gsp:6", 1), ("go:7", 1),
    )

    def inputs(self, seed):
        rng = random.Random(f"certify:{seed}")
        jobs = [
            (spec, radius) + rng.choice(MODULI) for spec, radius in self.INSTANCES
        ]
        rng.shuffle(jobs)
        return {"jobs": jobs}

    def build(self, pw, inputs, call=plain):
        return {
            "data": [
                call("groups.build", pw.parse_group_spec, job[0])
                for job in inputs["jobs"]
            ],
            "go_even": call("groups.build", pw.parse_group_spec, "go:8"),
        }

    def run_round(self, pw, inputs, state, session):
        out = []
        for (spec, radius, p, r), datum in zip(inputs["jobs"], state["data"]):
            report = session.call(
                "phi.check_assumption", pw.check_assumption, datum, p, r,
                box_radius=radius,
            )
            out.append(
                FAILED if report is FAILED
                else (report.box_radius, report.all_ok, _verdicts(report))
            )
        report = session.call("groups.validate", pw.validate_datum, state["go_even"])
        out.append(
            FAILED if report is FAILED
            else (
                (report.a, report.b, report.c_lower, report.c_upper, report.d),
                report.witnesses,
            )
        )
        return out

    def pairs(self, inputs):
        """Pairs certified per round, counted as (2R+1)^(2n) per instance."""
        return sum(
            ref.box_size(2 * ref.family(spec).n, radius)
            for spec, radius, _, _ in inputs["jobs"]
        )

    def round_metrics(self, inputs, times):
        return {"pairs_per_s": self.pairs(inputs) / times["phi.check_assumption"]}

    def check(self, inputs, state, outputs):
        problems = []
        for (spec, radius, p, r), got in zip(inputs["jobs"], outputs):
            if got is FAILED:
                continue
            fam = ref.family(spec)
            box_radius, all_ok, verdicts = got
            want = {
                "positivity": ref.box_size(fam.n, radius),
                "homogeneity": ref.box_size(fam.n, radius),
                "additivity_witness": ref.box_size(2 * fam.n, radius),
                "x0_bijection": ref.box_size(len(fam.dvecs), radius),
            }
            if box_radius != radius:
                problems.append(f"{spec}: box radius {box_radius}, asked {radius}")
            if not all_ok:
                problems.append(f"{spec} p={p} r={r}: all_ok is false")
            for name, ok, checked, skipped, witness in verdicts:
                if not ok or skipped:
                    problems.append(f"{spec} {name}: ok={ok} skipped={skipped} {witness}")
                if checked != want.get(name):
                    problems.append(
                        f"{spec} {name}: checked {checked}, box holds {want.get(name)}"
                    )
        go_even = outputs[-1]
        if go_even is not FAILED:
            flags, witnesses = go_even
            if flags != (True, True, False, True, True):
                problems.append(f"go:8 hypothesis flags (a, b, c_lower, c_upper, d) {flags}")
            if not witnesses or any(not w.startswith("(c-lower)") for w in witnesses):
                problems.append(f"go:8 witnesses {witnesses}")
        return problems


class Classify:
    """Scalar predicates, box sweeps, enumeration and the gl orbit checks."""

    name = "classify"
    # Sweep radius per group: about 15,000 box points each.
    GROUPS = (("gl:3", 12), ("gsp:4", 5), ("go:5", 3), ("levi:2,3", 3))
    STREAM = 100  # seeded weights per context
    FLAG_SAMPLE = 200  # box points per context compared bit for bit
    ORBIT_RADIUS = 6
    ORBIT_BASES = 3  # seeded base weights per prime, one shift each

    def inputs(self, seed):
        rng = random.Random(f"classify:{seed}")
        contexts = []
        for spec, radius in self.GROUPS:
            n = ref.family(spec).n
            for p, r in MODULI:
                prpow = p**r
                contexts.append({
                    "spec": spec, "p": p, "r": r, "radius": radius,
                    "stream": [
                        tuple(rng.randint(-prpow, 2 * prpow) for _ in range(n))
                        for _ in range(self.STREAM)
                    ],
                    "sample": sorted(
                        rng.sample(range(ref.box_size(n, radius)), self.FLAG_SAMPLE)
                    ),
                })
        orbits = []
        for p in (2, 3):
            for _ in range(self.ORBIT_BASES):
                base, shift = _orbit_job(rng, p)
                orbits.append({"p": p, "base": base, "shift": shift})
        return {"contexts": contexts, "orbits": orbits}

    def build(self, pw, inputs, call=plain):
        data = {
            spec: call("groups.build", pw.parse_group_spec, spec)
            for spec, _ in self.GROUPS
        }
        contexts = {}
        for job in inputs["contexts"]:
            ctx = call(
                "classify.context", pw.ClassificationContext,
                data[job["spec"]], job["p"], job["r"],
            )
            ctx.tables()
            contexts[job["spec"], job["p"], job["r"]] = ctx
        return contexts

    def run_round(self, pw, inputs, contexts, session):
        from polyweight import _kernels

        out = []
        for job in inputs["contexts"]:
            ctx = contexts[job["spec"], job["p"], job["r"]]
            prpow, radius = job["p"] ** job["r"], job["radius"]
            size = ref.box_size(ctx.datum.ambient_dim, radius)
            sweep = session.call(
                "kernels.decompose_unique_sweep", _kernels.decompose_unique_sweep,
                ctx.tables(), prpow, radius, max_failures=size,
            )
            flags = session.call(
                "kernels.predicate_flags_box", _kernels.predicate_flags_box,
                ctx.tables(), prpow, radius,
            )
            stream = []
            for weight in job["stream"]:
                member = session.call("classify.scalar", pw.in_Pr, weight, ctx)
                split = session.call(
                    "classify.scalar", pw.decompose, weight, ctx,
                    expect=pw.DecompositionUnavailable,
                )
                if isinstance(split, pw.DecompositionUnavailable):
                    split = "unavailable"
                elif split is not FAILED:
                    split = (split.lambda0, split.lambda_tilde)
                simple = session.call(
                    "classify.scalar", pw.simple_membership, weight, ctx
                )
                stream.append((member, split, simple))
            digits = session.call("classify.enumerate", pw.enumerate_Pr, ctx)
            out.append((sweep, flags, stream, digits))
        for job in inputs["orbits"]:
            ctx = contexts["gl:3", job["p"], 1]
            orbit = session.call(
                "affine.orbit_in_box", pw.orbit_in_box, job["base"], job["p"],
                self.ORBIT_RADIUS, ctx.datum,
            )
            result = session.call(
                "affine.shift_bijection", pw.check_shift_bijection,
                job["base"], job["shift"], ctx, self.ORBIT_RADIUS,
            )
            out.append((
                FAILED if orbit is FAILED else orbit.elements,
                FAILED if result is FAILED
                else (result.ok, result.counterexample, result.orbit_size,
                      result.shift_bound),
            ))
        return out

    def round_metrics(self, inputs, times):
        points = sum(
            2 * ref.box_size(ref.family(job["spec"]).n, job["radius"])
            for job in inputs["contexts"]
        )
        weights = sum(len(job["stream"]) for job in inputs["contexts"])
        sweep_s = (
            times["kernels.decompose_unique_sweep"]
            + times["kernels.predicate_flags_box"]
        )
        return {
            "sweep_classes_per_s": points / sweep_s,
            "scalar_weights_per_s": weights / times["classify.scalar"],
        }

    def check(self, inputs, state, outputs):
        problems = []
        jobs = inputs["contexts"]
        for job, (sweep, flags, stream, digits) in zip(jobs, outputs):
            fam = ref.family(job["spec"])
            prpow = job["p"] ** job["r"]
            where = f"{job['spec']} p^r={prpow}"
            problems += self._check_sweeps(fam, job, prpow, where, sweep, flags)
            for weight, answer in zip(job["stream"], stream):
                problems += self._check_weight(fam, prpow, where, weight, answer)
            if digits is not FAILED:
                problems += self._check_digits(fam, prpow, where, digits)
        for job, (elements, shift) in zip(inputs["orbits"], outputs[len(jobs):]):
            problems += self._check_orbit(job, elements, shift)
        return problems

    def _check_sweeps(self, fam, job, prpow, where, sweep, flags):
        problems = []
        radius = job["radius"]
        size = ref.box_size(fam.n, radius)
        if sweep is not FAILED:
            checked, failures = sweep
            if checked != size:
                problems.append(f"{where}: decomposition sweep checked {checked} of {size}")
            predicted = [
                w for w in ref.box(fam.n, radius) if ref.go_odd_unavailable(fam, w, prpow)
            ]
            if [lam for lam, _ in failures] != predicted:
                problems.append(
                    f"{where}: {len(failures)} decomposition failures, "
                    f"{len(predicted)} predicted"
                )
            if any(count for _, count in failures):
                problems.append(f"{where}: a failing class has decompositions")
        if flags is not FAILED:
            if len(flags) != size:
                problems.append(f"{where}: {len(flags)} flag words for {size} points")
            for word in flags:
                if (word >> 3 & 1) != (word & 7 == 7):
                    problems.append(f"{where}: flag word {word} splits the digit set")
                    break
            points = list(ref.box(fam.n, radius))
            for index in job["sample"]:
                want = ref.flag_word(fam, points[index], prpow)
                if index >= len(flags) or flags[index] != want:
                    problems.append(f"{where}: flags at {points[index]} differ from {want}")
                    break
            if fam.kind == "gl":
                for point, word in zip(points, flags):
                    if (word >> 3 & 1) != ref.gl_in_pr_closed_form(point, prpow):
                        problems.append(f"{where}: closed form disagrees at {point}")
                        break
        return problems

    def _check_weight(self, fam, prpow, where, weight, answer):
        problems = []
        member, split, simple = answer
        if member is not FAILED:
            want = ref.in_pr(fam, weight, prpow)
            if fam.kind == "gl" and want != ref.gl_in_pr_closed_form(weight, prpow):
                problems.append(f"{where}: reference and closed form split at {weight}")
            if member != want:
                problems.append(f"{where}: in_Pr{weight} = {member}")
        unavailable = ref.go_odd_unavailable(fam, weight, prpow)
        if split == "unavailable":
            if not unavailable:
                problems.append(f"{where}: decompose{weight} unavailable, not predicted")
            want_simple = False
        elif split is not FAILED:
            lam0, lam_tilde = split
            if unavailable:
                problems.append(f"{where}: decompose{weight} answered a predicted failure")
            if not ref.in_pr(fam, lam0, prpow):
                problems.append(f"{where}: lambda0 {lam0} of {weight} not in P_r")
            recombined = tuple(a + prpow * b for a, b in zip(lam0, lam_tilde))
            if not ref.same_class(fam, recombined, weight):
                problems.append(f"{where}: {lam0} + p^r {lam_tilde} not in the class of {weight}")
            want_simple = ref.is_polynomial(fam, lam_tilde)
        else:
            return problems
        if simple is not FAILED and simple != want_simple:
            problems.append(f"{where}: simple_membership{weight} = {simple}")
        return problems

    def _check_digits(self, fam, prpow, where, digits):
        problems = []
        if len(digits) != ref.pr_size(fam, prpow):
            problems.append(f"{where}: |P_r| = {len(digits)}, want {ref.pr_size(fam, prpow)}")
        outside = [w for w in digits if not ref.in_pr(fam, w, prpow)]
        if outside:
            problems.append(f"{where}: enumerated {outside[0]} is not in P_r")
        if len({ref.class_key(fam, w) for w in digits}) != len(digits):
            problems.append(f"{where}: enumeration repeats a class")
        return problems

    def _check_orbit(self, job, elements, result):
        problems = []
        p, base, i = job["p"], job["base"], job["shift"]
        where = f"gl:3 p={p} orbit of {base}"
        scan = ref.gl_orbit_scan(base, p, self.ORBIT_RADIUS)
        if elements is not FAILED and tuple(elements) != scan:
            problems.append(f"{where}: {len(elements)} classes, scan {len(scan)}")
        if result is FAILED:
            return problems
        ok, counterexample, orbit_size, shift_bound = result
        want_ok = all(
            ref.gl_simple(mu, p) == ref.gl_simple(tuple(c + i for c in mu), p)
            for mu in scan
        )
        if (ok, counterexample is None) != (want_ok, want_ok):
            problems.append(f"{where} shift {i}: ok={ok} {counterexample}")
        if shift_bound != ref.gl_shift_bound(base, p):
            problems.append(f"{where}: shift bound {shift_bound}")
        if orbit_size != len(scan):
            problems.append(f"{where} shift {i}: orbit size {orbit_size}")
        return problems


class Build:
    """Datum construction, validation and Weyl closure up a rank ladder."""

    name = "build"
    LADDER = (
        "gsp:4", "gsp:6", "gsp:8", "gsp:10", "go:5", "go:7", "go:9",
        "gl:2", "gl:3", "gl:4", "gl:5", "gl:6", "gl:7", "gl:8", "go:8",
    )
    LEVI_PARTS = ((1, 2, 3), (2, 2, 3), (1, 1, 2, 4))

    def inputs(self, seed):
        rng = random.Random(f"build:{seed}")
        levis = [
            "levi:" + ",".join(map(str, rng.sample(parts, len(parts))))
            for parts in self.LEVI_PARTS
        ]
        jobs = [(spec,) + rng.choice(MODULI) for spec in self.LADDER + tuple(levis)]
        rng.shuffle(jobs)
        return {"jobs": jobs}

    def build(self, pw, inputs, call=plain):
        return None

    def run_round(self, pw, inputs, state, session):
        out = []
        for spec, p, r in inputs["jobs"]:
            datum = session.call("groups.build", pw.parse_group_spec, spec)
            if datum is FAILED:
                out.append(FAILED)
                continue
            report = session.call("groups.validate", pw.validate_datum, datum)
            weyl = session.call("groups.weyl", datum.weyl_group)
            rank = None
            if report is not FAILED and report.all_ok:
                ctx = session.call(
                    "classify.context", pw.ClassificationContext, datum, p, r
                )
                rank = FAILED if ctx is FAILED else ctx.rank
            out.append((
                datum.ambient_dim,
                FAILED if report is FAILED
                else (report.a, report.b, report.c_lower, report.c_upper, report.d),
                FAILED if weyl is FAILED else len(weyl),
                rank,
            ))
        return out

    def round_metrics(self, inputs, times):
        return {}

    def check(self, inputs, state, outputs):
        problems = []
        for (spec, p, r), got in zip(inputs["jobs"], outputs):
            if got is FAILED:
                continue
            fam = ref.family(spec)
            dim, flags, order, rank = got
            if dim != fam.n:
                problems.append(f"{spec}: ambient dimension {dim}")
            want_flags = (True, True, fam.kind != "go_even", True, True)
            if flags is not FAILED and flags != want_flags:
                problems.append(f"{spec}: hypothesis flags {flags}, want {want_flags}")
            if order is not FAILED and order != fam.weyl_order:
                problems.append(f"{spec}: Weyl order {order}, want {fam.weyl_order}")
            want_rank = None if fam.kind == "go_even" else fam.rank
            if rank is not FAILED and rank != want_rank:
                problems.append(f"{spec}: context rank {rank}, want {want_rank}")
        return problems


def _orbit_job(rng, p):
    """A seeded simple-polynomial gl(3) weight and a shift 1 <= i <= p - a - 1.

    Bases whose shift bound a leaves only i = 0, which is vacuously
    true, are skipped, so every job compares its orbit slice.
    """
    bases = [
        w for w in ref.box(3, 3)
        if ref.gl_simple(w, p) and p - ref.gl_shift_bound(w, p) >= 2
    ]
    base = rng.choice(bases)
    return base, rng.randint(1, p - ref.gl_shift_bound(base, p) - 1)


def _weight_arg(weight):
    return "--weight=" + ",".join(map(str, weight))


class Cli:
    """Rounds of the seven subcommands as fresh ``python -m polyweight`` processes."""

    name = "cli"
    TIMEOUT_S = 60
    PROBES = 2  # bare starts and fresh imports per traced round

    def inputs(self, seed):
        rng = random.Random(f"cli:{seed}")
        requests = []

        def weighted(command, specs):
            spec = rng.choice(specs)
            p, r = rng.choice(MODULI)
            n = ref.family(spec).n
            weight = tuple(rng.randint(-p**r, 2 * p**r) for _ in range(n))
            return [command, "--group", spec, "--p", str(p), "--r", str(r),
                    _weight_arg(weight)]

        requests.append(weighted("classify", ["gl:3", "gsp:4", "go:5", "levi:2,3"]))
        requests.append(weighted("decompose", ["gl:3", "gsp:4", "go:5", "levi:2,3"]))
        p, r = rng.choice(MODULI[:2])
        requests.append(["enumerate-pr", "--group", rng.choice(["gl:3", "gsp:4"]),
                         "--p", str(p), "--r", str(r)])
        requests.append(["validate", "--group", rng.choice(
            ["gsp:6", "go:7", "gl:5", "levi:2,3", "go:8"])])
        p, r = rng.choice(MODULI)
        requests.append(["assumption-check", "--group", "gl:3", "--p", str(p),
                         "--r", str(r), "--box-radius", "2"])
        requests.append(["counterexample", "--prpower",
                         str(rng.choice([5, 9, 13, 17, 25, 29]))])
        p = rng.choice([2, 3])
        base, shift = _orbit_job(rng, p)
        requests.append(["orbit-shift", "--group", "gl:3", "--p", str(p),
                         "--r", "1", _weight_arg(base), "--shift-i", str(shift),
                         "--box-radius", "4"])
        return {"requests": requests}

    @staticmethod
    def child_env():
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("POLYWEIGHT_FORMAT", None)
        return env

    def build(self, pw, inputs, call=plain):
        return {"env": self.child_env(), "backend": pw.kernel_backend_name}

    def _invoke(self, argv, env):
        proc = subprocess.run(
            [sys.executable, "-m", "polyweight", *argv], cwd=ROOT, env=env,
            capture_output=True, timeout=self.TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_round(self, pw, inputs, state, session):
        return [
            session.call("process.invoke", self._invoke, argv, state["env"])
            for argv in inputs["requests"]
        ]

    def round_metrics(self, inputs, times):
        return {}

    def probe(self, pw, inputs, state, tracer):
        """Per-layer samples: bare start, fresh import, in-process subcommands."""
        from polyweight import cli

        samples = {"cli.start_ms": [], "cli.import_ms": []}
        snippet = (
            "import time; t = time.perf_counter(); import polyweight; "
            "print((time.perf_counter() - t) * 1000)"
        )
        for _ in range(self.PROBES):
            begin = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True,
                           timeout=self.TIMEOUT_S)
            samples["cli.start_ms"].append((time.perf_counter() - begin) * 1000)
            proc = subprocess.run(
                [sys.executable, "-c", snippet], env=state["env"], cwd=ROOT,
                capture_output=True, text=True, check=True, timeout=self.TIMEOUT_S,
            )
            samples["cli.import_ms"].append(float(proc.stdout.split()[-1]))
        for argv in inputs["requests"]:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                tracer.call(f"cli.{argv[0]}", cli.main, argv)
        return samples

    def check(self, inputs, state, outputs):
        problems = []
        for argv, got in zip(inputs["requests"], outputs):
            if got is FAILED:
                continue
            code, out, err = got
            problems += [
                f"{' '.join(argv)}: {p}"
                for p in check_cli_answer(argv, code, out, err, state["backend"])
            ]
        return problems


def _option(argv, name):
    for index, arg in enumerate(argv):
        if arg == name:
            return argv[index + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def check_cli_answer(argv, code, out, err, backend):
    """Problems with one CLI answer, judged from the reference."""
    command = argv[0]
    spec = _option(argv, "--group")
    fam = ref.family(spec) if spec else None
    weight = _option(argv, "--weight")
    weight = tuple(int(c) for c in weight.split(",")) if weight else None
    prpow = None
    if _option(argv, "--p"):
        prpow = int(_option(argv, "--p")) ** int(_option(argv, "--r"))
    unavailable = fam is not None and weight is not None and ref.go_odd_unavailable(
        fam, weight, prpow
    )
    if command == "decompose" and unavailable:
        if code != 4 or not err.startswith(b"error:") or out:
            return [f"exit {code} for an undecomposable class, want 4"]
        return []
    if code != 0 or err:
        return [f"exit {code}: {err.decode(errors='replace').strip()}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    problems = []
    if payload.get("command") != command:
        problems.append(f"command {payload.get('command')}")
    if backend is not None and payload.get("backend") != backend:
        problems.append(f"backend {payload.get('backend')}, want {backend}")
    if spec and payload.get("group") != spec:
        problems.append(f"group {payload.get('group')}")
    result = payload.get("result", {})
    if command in ("classify", "decompose"):
        if list(result.get("weight", ())) != list(weight):
            problems.append(f"weight {result.get('weight')}")
        lam0, lam_tilde = result.get("lambda0"), result.get("lambda_tilde")
        if command == "classify":
            want = {
                "phi": list(ref.phi(fam, weight)),
                "is_polynomial": ref.is_polynomial(fam, weight),
                "is_restricted": ref.is_restricted(fam, weight, prpow),
                "in_Pr": ref.in_pr(fam, weight, prpow),
            }
            for key, value in want.items():
                if result.get(key) != value:
                    problems.append(f"{key} = {result.get(key)}, want {value}")
            if unavailable:
                if lam0 is not None or result.get("is_simple_polynomial") is not False:
                    problems.append("an undecomposable class got a decomposition")
                return problems
        if lam0 is None or lam_tilde is None:
            return problems + ["no decomposition"]
        lam0, lam_tilde = tuple(lam0), tuple(lam_tilde)
        if not ref.in_pr(fam, lam0, prpow):
            problems.append(f"lambda0 {lam0} not in P_r")
        recombined = tuple(a + prpow * b for a, b in zip(lam0, lam_tilde))
        if not ref.same_class(fam, recombined, weight):
            problems.append("lambda0 + p^r lambda_tilde leaves the class")
        if command == "classify":
            if result.get("is_simple_polynomial") != ref.is_polynomial(fam, lam_tilde):
                problems.append("is_simple_polynomial disagrees")
        else:
            if result.get("phi_lambda0") != list(ref.phi(fam, lam0)):
                problems.append("phi_lambda0 disagrees")
            if result.get("phi_lambda_tilde") != list(ref.phi(fam, lam_tilde)):
                problems.append("phi_lambda_tilde disagrees")
    elif command == "enumerate-pr":
        elements = [tuple(e) for e in result.get("elements", ())]
        if result.get("count") != len(elements) or len(elements) != ref.pr_size(fam, prpow):
            problems.append(f"count {result.get('count')}, want {ref.pr_size(fam, prpow)}")
        if any(not ref.in_pr(fam, e, prpow) for e in elements):
            problems.append("an element is not in P_r")
        if len({ref.class_key(fam, e) for e in elements}) != len(elements):
            problems.append("a class is repeated")
    elif command == "validate":
        flags = tuple(result.get(k) for k in ("a", "b", "c_lower", "c_upper", "d"))
        if flags != (True, True, fam.kind != "go_even", True, True):
            problems.append(f"flags {flags}")
        if result.get("all_ok") != (fam.kind != "go_even"):
            problems.append(f"all_ok {result.get('all_ok')}")
    elif command == "assumption-check":
        radius = int(_option(argv, "--box-radius"))
        want = {
            "positivity": ref.box_size(fam.n, radius),
            "homogeneity": ref.box_size(fam.n, radius),
            "additivity_witness": ref.box_size(2 * fam.n, radius),
            "x0_bijection": ref.box_size(len(fam.dvecs), radius),
        }
        got = {v["name"]: v["checked"] for v in result.get("properties", ())}
        if got != want:
            problems.append(f"checked counts {got}, want {want}")
        if result.get("all_ok") is not True or any(
            not v["ok"] or v["skipped"] for v in result.get("properties", ())
        ):
            problems.append("a property failed")
    elif command == "counterexample":
        prpow = int(_option(argv, "--prpower"))
        fam = ref.family("go:8")
        half, quarter = (prpow - 1) // 2, (prpow - 1) // 4
        lam0 = (half,) * 4 + (quarter,) * 4
        lam_tilde = (0, 0, 0, 0, 1, 1, -1, 1)
        shifted = tuple(a - prpow * d for a, d in zip(lam0, fam.dvecs[0]))
        want = {
            "prpow": prpow,
            "lambda0": list(lam0),
            "lambda_tilde": list(lam_tilde),
            "phi_lambda0": list(ref.phi(fam, lam0)),
            "phi_lambda0_shifted": list(ref.phi(fam, shifted)),
            "phi_lambda_tilde": list(ref.phi(fam, lam_tilde)),
            "witness": None,
            "weyl_order": fam.weyl_order,
        }
        if result != want:
            problems.append(f"scenario {result}, want {want}")
    elif command == "orbit-shift":
        p = int(_option(argv, "--p"))
        shift = int(_option(argv, "--shift-i"))
        radius = int(_option(argv, "--box-radius"))
        scan = ref.gl_orbit_scan(weight, p, radius)
        ok = all(
            ref.gl_simple(mu, p) == ref.gl_simple(tuple(c + shift for c in mu), p)
            for mu in scan
        )
        want = {
            "ok": ok,
            "shift_bound": ref.gl_shift_bound(weight, p),
            "orbit_size": len(scan) if shift else 0,
        }
        got = {key: result.get(key) for key in want}
        if got != want:
            problems.append(f"{got}, want {want}")
    return problems


WORKLOADS = {w.name: w for w in (Certify(), Classify(), Build(), Cli())}
