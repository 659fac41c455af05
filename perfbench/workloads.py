"""The benchmark workloads: seeded inputs, one timed call each, answer checks.

Each workload builds a fixed list of operations (one pass) from its seed.
An operation is a zero-argument callable timed by the runner, plus a check
that runs afterwards, outside the timed region, and compares the answer
with facts from oracle.py or frozen tables. A check returns None for a
correct answer, REJECTED for a documented rejection of an input that ought
to be rejected, or raises Failure (no answer where one was due) or
WrongAnswer (an answer that contradicts a fact).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import oracle

REJECTED = "rejected"


class Failure(Exception):
    """The operation gave no answer where one was due."""


class WrongAnswer(Exception):
    """The operation's answer contradicts an independent fact."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass(frozen=True)
class Op:
    label: str
    key: str  # the input, as text; the run's input digest hashes these
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]


@dataclass(frozen=True)
class Facts:
    """What the benchmark knows about one input without asking gkh."""

    determinant: int
    alternating: bool
    prime: bool
    arcs: int

    @classmethod
    def of(cls, quads) -> Facts:
        return cls(
            determinant=oracle.determinant(quads),
            alternating=oracle.is_alternating(quads),
            prime=oracle.is_prime_diagram(quads),
            arcs=len(set(oracle.arc_of_edges(quads).values())),
        )

    @property
    def satisfied(self) -> bool:
        # prime (3-edge-connected) with nonzero determinant implies reduced
        return self.alternating and self.prime and self.determinant != 0


def _gkh_error(gkh, exc: BaseException) -> bool:
    return isinstance(
        exc,
        (
            gkh.CodecError,
            gkh.ColoringError,
            gkh.DiagramError,
            gkh.FixtureError,
            gkh.LinalgError,
            gkh.PseudoError,
            gkh.VerifyError,
        ),
    )


def _answer_due(gkh, exc: BaseException | None) -> None:
    if exc is None:
        return
    kind = "refused with" if _gkh_error(gkh, exc) else "crashed with"
    raise Failure(f"{kind} {type(exc).__name__}: {exc}")


def check_verify_report(report, facts: Facts, what: str) -> None:
    """Facts a verify_gkh report must agree with."""
    hyp = report.hypotheses
    require(hyp.determinant == facts.determinant, f"{what}: determinant {hyp.determinant} != {facts.determinant}")
    require(report.group.determinant == facts.determinant, f"{what}: group order {report.group.determinant} != {facts.determinant}")
    require(hyp.alternating == facts.alternating, f"{what}: alternating flag {hyp.alternating}")
    require(hyp.prime == facts.prime, f"{what}: prime flag {hyp.prime}")
    if facts.prime:
        require(hyp.reduced, f"{what}: a 3-edge-connected diagram reported not reduced")
    if facts.satisfied:
        require(report.passed, f"{what}: hypotheses hold but verification failed")
        require(report.pseudo_free, f"{what}: hypotheses hold but {report.inverse_pseudo_count} pseudo colorings found")
    if report.t is not None:
        floor = oracle.min_columns(report.group.annihilator, facts.arcs)
        require(floor is not None and report.t >= floor, f"{what}: t = {report.t} below the counting bound {floor}")


# ---------------------------------------------------------------- verify_large

# What decides an operation's cost (braid words, fixture picks, fuzz seeds)
# is drawn once, from POOL_SEED, and frozen. The run seed lists each PD
# code's crossings in another order and orders the pass. gkh relabels every
# diagram canonically, so each seed poses the same problems at the same
# cost. Fresh or rotated words per seed made runs differ by the inputs'
# cost, about 1.5x on one 52-crossing braid, not by the program's speed.
POOL_SEED = 2301


def pd_text(rng: random.Random, quads) -> str:
    """PD text of quads, crossings listed in an order drawn from rng."""
    quads = list(quads)
    rng.shuffle(quads)
    return oracle.format_pd(quads)


# (kind, size): the turks head (s1 s2^-1)^25 and one alternating braid of
# (strands, letters), 50 and 52 crossings. Each call takes 1-2 s at the
# seed; a pass of two keeps a run repeating each of them a dozen times,
# so that each counts at its fastest (see run.py).
VERIFY_LARGE_PASS = (
    ("turks", 25),
    ("braid", (4, 52)),
)


def alternating_braid(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    """A reduced alternating prime braid word: generator signs follow parity."""
    while True:
        polarity = rng.randrange(2)
        letters = []
        for _ in range(length):
            g = rng.randint(1, strands - 1)
            letters.append(g if g % 2 == polarity else -g)
        if {abs(x) for x in letters} == set(range(1, strands)) and oracle.is_prime_diagram(
            oracle.braid_pd(strands, letters)
        ):
            return tuple(letters)


def verify_large(gkh, seed: int) -> list[Op]:
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    ops = []
    for kind, size in VERIFY_LARGE_PASS:
        if kind == "turks":
            strands, word = 3, (1, -2) * size
            expected_det = oracle.turks_head_determinant(size)
            label = f"turks_head({size})"
        else:
            strands, length = size
            word = alternating_braid(pool, strands, length)
            expected_det = None
            label = f"braid{strands}x{length}"
        quads = oracle.braid_pd(strands, word)
        text = pd_text(rng, quads)
        facts = Facts.of(quads)
        if expected_det is not None and facts.determinant != expected_det:
            raise RuntimeError(f"{label}: oracle determinant disagrees with L_2n - 2")
        if not facts.satisfied:
            raise RuntimeError(f"{label}: generated input is not reduced alternating prime")

        def run(text=text):
            return gkh.verify_gkh(gkh.from_pd(gkh.parse_pd(text)))

        def check(report, exc, facts=facts, label=label):
            _answer_due(gkh, exc)
            check_verify_report(report, facts, label)

        ops.append(Op(label, text, run, check))
    return ops


# ---------------------------------------------------------------- cover_search

# t frozen from the seed program; each shape also runs as its mirror. The
# calls take 0.06-0.4 s at the seed, so a run repeats each a dozen times.
_COVER_SHAPES = {
    (3,) * 8: 5,
    (3,) * 9: 6,
    (3,) * 10: 6,
    (3,) * 8 + (5,): 5,
    (3,) * 9 + (5,): 6,
    (3,) * 8 + (7,): 5,
    (5,) * 8: 5,
}
COVER_T = {tuple(sign * x for x in shape): t for shape, t in _COVER_SHAPES.items() for sign in (1, -1)}


def cover_search(gkh, seed: int) -> list[Op]:
    shapes = sorted(COVER_T)
    random.Random(seed).shuffle(shapes)
    ops = []
    for twists in shapes:
        cm = gkh.coloring_matrix(gkh.pretzel(*twists))
        n1 = cm.modulus
        c_rows = cm.c.row_list()
        if oracle.matmul(c_rows, cm.l.row_list()) != [
            [n1 * (i == j) for j in range(len(c_rows))] for i in range(len(c_rows))
        ]:
            raise WrongAnswer(f"pretzel{twists}: C * L != n1 * I")
        if abs(oracle.bareiss_det(c_rows)) != oracle.pretzel_determinant(twists):
            raise WrongAnswer(f"pretzel{twists}: determinant differs from the pretzel formula")
        rows = cm.extended_rows()
        label = "pretzel(" + ",".join(map(str, twists)) + ")"

        def run(twists=twists):
            return gkh.distinguishing_report(gkh.pretzel(*twists))

        def check(report, exc, twists=twists, n1=n1, rows=rows, label=label):
            _answer_due(gkh, exc)
            require(report.modulus == n1, f"{label}: modulus {report.modulus} != {n1}")
            require(report.injective, f"{label}: arc pairs left together {report.failures[:3]}")
            require(report.t == COVER_T[twists], f"{label}: t = {report.t}, frozen {COVER_T[twists]}")
            require(len(report.t_columns) == report.t, f"{label}: {len(report.t_columns)} witness columns for t = {report.t}")
            require(report.t >= oracle.min_columns(n1, len(rows)), f"{label}: t below the counting bound")
            seen = {tuple(r[c] for c in report.t_columns) for r in rows}
            require(len(seen) == len(rows), f"{label}: witness columns leave arcs together")

        ops.append(Op(label, label, run, check))
    return ops


# ---------------------------------------------------------------- cli_mix

CLI_INPUTS = 18
CLI_MIN, CLI_MAX = 10, 36
HEAVY = ("pseudo", "distinguish", "verify")
# positions whose braid must have determinant 0, one per heavy command; the
# rest must not. Every pass feeds determinant-0 inputs to the CLI.
CLI_SINGULAR = (4, 9, 14)
# the kh fuzz loop: random reduced alternating prime diagrams, all of which must pass
FUZZ_RUNS, FUZZ_COUNT, FUZZ_MAX_CROSSINGS = 1, 5, 20

# determinants of the bundled fixtures, from the knot tables
FIXTURE_DETERMINANTS = {
    "3_1": 3, "3_1_mirror": 3, "4_1": 5, "5_2": 7, "7_7": 21, "7_7b": 21,
    "8_19": 3, "10_123": 121, "w6": 320, "p33333": 405, "p3336": 189,
    "conway": 1, "square": 9, "granny": 9, "hopf": 2, "kink": 1, "split": 0,
}

_PSEUDO_LINE = re.compile(
    r"^(?:column (\d+)|tunnel): epsilon ([+-]1) at crossings \((\d+), (\d+)\), colors \[(.*)\]$"
)
_T_LINE = re.compile(r"^all arc pairs distinguished, t = (\d+) via columns \[(.*)\]$")


def random_braid_word(rng: random.Random, strands: int, length: int, singular: bool) -> tuple[int, ...]:
    """A braid word using every generator, whose closure has determinant 0 or not as asked."""
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))
        if {abs(x) for x in letters} != set(range(1, strands)):
            continue
        if (oracle.determinant(oracle.braid_pd(strands, letters)) == 0) == singular:
            return letters


def _run_cli(gkh, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = gkh.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@dataclass(frozen=True)
class CliInput:
    argv: tuple[str, ...]
    what: str
    facts: Facts
    rows: tuple[tuple[int, ...], ...]  # gkh's C'(D), arc order as gkh prints colors


def _cli_input(gkh, argv, diagram) -> CliInput:
    quads = diagram.to_pd().crossings
    facts = Facts.of(quads)
    rows = tuple(tuple(r) for r in gkh.crossing_matrix(diagram).row_list())
    what = " ".join(argv[:3]) if argv[1] == "--name" else f"{argv[0]} --pd <{len(quads)} crossings>"
    if oracle.reduced_abs_det(rows) != facts.determinant:
        raise WrongAnswer(f"{what}: gkh crossing matrix determinant disagrees with the oracle")
    return CliInput(tuple(argv), what, facts, rows)


def _check_pseudo_lines(lines, item: CliInput, what: str) -> int:
    found = 0
    for line in lines:
        m = _PSEUDO_LINE.match(line)
        require(m is not None, f"{what}: unreadable line {line!r}")
        eps, plus, other = int(m.group(2)), int(m.group(3)), int(m.group(4))
        colors = [int(x) for x in m.group(5).split(",")]
        defects = [sum(a * b for a, b in zip(row, colors)) for row in item.rows]
        expected = [0] * len(item.rows)
        expected[plus], expected[other] = 1, eps
        require(plus != other and defects == expected, f"{what}: defects {defects} do not match {line!r}")
        found += 1
    return found


def check_cli(command: str, item: CliInput, result, exc) -> str | None:
    what = item.what
    if exc is not None:
        raise Failure(f"{command}: traceback {type(exc).__name__}: {exc}")
    code, out, err = result
    facts = item.facts
    rejectable = facts.determinant == 0 and command != "det"
    if code == 2 and err.startswith("kh:"):
        if rejectable:
            return REJECTED
        raise Failure(f"{what}: refused a valid input: {err.strip()}")
    require(not rejectable, f"{what}: determinant 0 accepted with exit {code}")
    lines = out.splitlines()
    if command == "det":
        require(code == 0 and lines == [str(facts.determinant)], f"{what}: printed {out!r}")
    elif command == "group":
        require(code == 0 and len(lines) == 2, f"{what}: exit {code}, {out!r}")
        factors = [] if lines[0] == "trivial" else [int(f[2:]) for f in lines[0].split(" + ")]
        product = 1
        for f in factors:
            product *= f
        require(lines[1] == f"determinant {facts.determinant}", f"{what}: {lines[1]!r}")
        require(product == facts.determinant, f"{what}: factors {factors} multiply to {product}")
        require(all(f > 1 for f in factors), f"{what}: factor 1 or less in {factors}")
        require(all(a % b == 0 for a, b in zip(factors, factors[1:])), f"{what}: {factors} not a divisor chain")
    elif command == "distinguish":
        require(code == 0 and len(lines) == 3, f"{what}: exit {code}, {out!r}")
        modulus = int(lines[0].rsplit(" ", 1)[1])
        require(facts.determinant % modulus == 0, f"{what}: modulus {modulus} does not divide {facts.determinant}")
        m = _T_LINE.match(lines[1])
        if m:
            t = int(m.group(1))
            columns = [int(x) for x in m.group(2).split(",")] if m.group(2) else []
            floor = oracle.min_columns(modulus, facts.arcs)
            require(len(columns) == t and floor is not None and t >= floor, f"{what}: t = {t} with columns {columns}")
        else:
            require(lines[1].startswith("undistinguished pairs: [["), f"{what}: {lines[1]!r}")
            require(not facts.satisfied, f"{what}: hypotheses hold but pairs were left together")
    elif command == "pseudo":
        require(code == 0, f"{what}: exit {code}")
        found = 0 if lines == ["no pseudo colorings found"] else _check_pseudo_lines(lines, item, what)
        if facts.satisfied:
            require(found == 0, f"{what}: pseudo colorings on a reduced alternating prime diagram")
    elif command == "verify":
        payload = json.loads(out)
        hyp = payload["hypotheses"]
        require(code in (0, 1), f"{what}: exit {code}")
        require(payload["determinant"] == facts.determinant == hyp["determinant"], f"{what}: determinant {payload['determinant']}")
        require(hyp["alternating"] == facts.alternating and hyp["prime"] == facts.prime, f"{what}: flags {hyp}")
        product = 1
        for f in payload["factors"]:
            product *= f
        require(product == facts.determinant, f"{what}: factors {payload['factors']}")
        require(all(p["epsilon"] in (1, -1) for p in payload["pseudo"]["found"]), f"{what}: epsilon not a unit")
        if code == 0:
            require(payload["partA"] and not payload["failures"], f"{what}: exit 0 with failures")
        if facts.satisfied:
            require(code == 0 and not payload["pseudo"]["found"], f"{what}: hypotheses hold but exit {code}")
    return None


def check_all_fixtures(result, exc) -> None:
    if exc is not None:
        raise Failure(f"verify --all-fixtures: traceback {type(exc).__name__}: {exc}")
    code, out, _ = result
    lines = out.splitlines()
    require(code == 0 and len(lines) >= len(FIXTURE_DETERMINANTS), f"verify --all-fixtures: exit {code}")
    for line in lines:
        name, status, det = line.split()[:3]
        require(status == "ok", f"verify --all-fixtures: {line!r}")
        if name in FIXTURE_DETERMINANTS:
            require(det == f"det={FIXTURE_DETERMINANTS[name]}", f"verify --all-fixtures: {line!r}")


def check_fuzz(result, exc) -> None:
    if exc is not None:
        raise Failure(f"fuzz: traceback {type(exc).__name__}: {exc}")
    code, out, _ = result
    lines = out.splitlines()
    require(code == 0 and lines[-1] == f"{FUZZ_COUNT}/{FUZZ_COUNT} passed", f"fuzz: exit {code}, {lines[-1:]}")
    require(len(lines) == FUZZ_COUNT + 1 and all(line.endswith(", ok") for line in lines[:-1]), f"fuzz: {out!r}")


def cli_mix(gkh, seed: int) -> list[Op]:
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    plan: list[tuple[str, CliInput]] = []
    for i in range(CLI_INPUTS):
        # size, strand count, heavy command and word are fixed by position
        crossings = CLI_MIN + round((CLI_MAX - CLI_MIN) * i / (CLI_INPUTS - 1))
        strands = 3 + i // 3 % 3
        word = random_braid_word(pool, strands, crossings, i in CLI_SINGULAR)
        text = pd_text(rng, oracle.braid_pd(strands, word))
        diagram = gkh.from_pd(gkh.parse_pd(text))
        for command in ("det", "group", HEAVY[i % len(HEAVY)]):
            argv = [command, "--pd", text] + (["--json"] if command == "verify" else [])
            plan.append((command, _cli_input(gkh, argv, diagram)))
    names = sorted(FIXTURE_DETERMINANTS)
    named = [("pseudo", "split"), ("pseudo", "8_19")]
    named += [("det", pool.choice(names)) for _ in range(2)]
    named += [("group", pool.choice([n for n in names if FIXTURE_DETERMINANTS[n]])) for _ in range(2)]
    named += [("verify", pool.choice(["3_1", "4_1", "5_2", "7_7", "10_123", "p33333", "p3336"]))]
    for command, name in named:
        argv = [command, "--name", name] + (["--json"] if command == "verify" else [])
        item = _cli_input(gkh, argv, gkh.fixture_diagram(name))
        if item.facts.determinant != FIXTURE_DETERMINANTS[name]:
            raise WrongAnswer(f"fixture {name}: determinant differs from the knot table")
        plan.append((command, item))
    rng.shuffle(plan)

    ops = []
    for command, item in plan:

        def run(argv=list(item.argv)):
            return _run_cli(gkh, argv)

        def check(result, exc, command=command, item=item):
            return check_cli(command, item, result, exc)

        ops.append(Op(command, " ".join(item.argv), run, check))
    extra = [("all-fixtures", ["verify", "--all-fixtures"], check_all_fixtures)]
    for _ in range(FUZZ_RUNS):
        argv = ["fuzz", "--seed", str(pool.randrange(1 << 31)), "--count", str(FUZZ_COUNT),
                "--max-crossings", str(FUZZ_MAX_CROSSINGS)]
        extra.append(("fuzz", argv, check_fuzz))
    for label, argv, check in extra:

        def run(argv=argv):
            return _run_cli(gkh, argv)

        ops.insert(rng.randrange(len(ops) + 1), Op(label, " ".join(argv), run, check))
    return ops


WORKLOADS = {
    "verify_large": verify_large,
    "cover_search": cover_search,
    "cli_mix": cli_mix,
}

# nearest-rank percentile reported as op_tail_s; fixed per workload so runs compare
TAIL_PERCENTILE = {
    "verify_large": 90,
    "cover_search": 75,
    "cli_mix": 84,
}
