"""The four workloads: seeded inputs, one op at a time, and the check of each op.

Every workload is a closed loop with one client and one op in flight.  Ops
come in blocks; each block draws its inputs from equal-probability strata,
so a run of whole blocks sees the same mix on every seed while the inputs
themselves differ.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from decimal import Decimal

import gen
from gen import L41, rng_for

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(slots=True)
class Outcome:
    """What one op did.  ``status`` is "ok", "defect" (a known defect that
    reproduced as documented) or "fail"."""

    seconds: float
    output: bytes = b""
    exit_code: int | None = 0
    stderr: str = ""
    exception: str | None = None
    value: object = None
    units: int = 0
    out_bytes: int = 0
    status: str = "ok"
    reason: str = ""
    startup: dict | None = None  # a traced child's interpreter and import times


def _error_line(stderr: str) -> str | None:
    """The single ``error:`` line of a clean failure, else None."""
    lines = stderr.splitlines()
    if len(lines) == 1 and lines[0].startswith("error: "):
        return lines[0]
    return None


class Workload:
    name = ""
    unit = ""
    block_size = 0
    trace_blocks = 1
    via_cli = False  # the op goes through fal_spectrum.cli
    in_process = True  # False: each op is a child process
    max_digits = 60

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        """A path inside the run's scratch directory, relative to the checkout."""
        return os.path.relpath(os.path.join(self.workdir, name))

    def load(self) -> None:
        """Import the package (the import part of set-up)."""

    def setup(self) -> None:
        """Generate inputs, write catalog files and warm what the ops reuse."""

    def block(self, index: int) -> list:
        raise NotImplementedError

    def run(self, op, recorder=None) -> Outcome:
        raise NotImplementedError

    def check(self, op, outcome: Outcome, ref) -> None:
        """Set outcome.status, reason and units from an independent check."""
        raise NotImplementedError

    def fail(self, outcome: Outcome, reason: str) -> None:
        outcome.status, outcome.reason = "fail", reason

    def tally(self, op, outcome: Outcome) -> None:
        """Account one timed op for ``summary``."""

    def summary(self) -> dict:
        """Extra figures for the run record."""
        return {}

    def peak_rss_kb(self) -> int:
        """Peak RSS so far of the process that runs the ops."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------


class ConstantsCold(Workload):
    name = "constants-cold"
    unit = "evaluations"
    block_size = 20
    trace_blocks = 2
    max_digits = 400

    def load(self) -> None:
        from fal_spectrum import numerics

        self.numerics = numerics

    def setup(self) -> None:
        self.digits = gen.Strata(rng_for(self.name, self.seed, "digits"), self.block_size, 30, 400)
        self.bands: dict[int, list[float]] = {}

    def block(self, index: int) -> list[int]:
        ops = [round(d) for d in self.digits.values(index)]
        rng_for(self.name, self.seed, "block", index).shuffle(ops)
        return ops

    def run(self, digits: int, recorder=None) -> Outcome:
        numerics = self.numerics
        start = time.perf_counter()
        try:
            numerics.clear_caches()
            ctx = numerics.PrecisionContext(digits)
            values = (numerics.v_oct(ctx), numerics.v_tet(ctx), numerics.two_v_oct(ctx), numerics.ten_v_tet(ctx))
        except Exception as exc:
            return Outcome(time.perf_counter() - start, exception=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        texts = [str(v) for v in values]
        return Outcome(seconds, output=(" ".join(texts) + "\n").encode(), value=texts)

    def tally(self, digits: int, outcome: Outcome) -> None:
        self.bands.setdefault(digits // 50 * 50, []).append(outcome.seconds)

    def summary(self) -> dict:
        """Median unscaled op time per 50-digit band."""
        return {"p50_ms_by_digits": {f"{b}-{b + 49}": round(statistics.median(v) * 1000, 3)
                                     for b, v in sorted(self.bands.items())}}

    def check(self, digits: int, outcome: Outcome, ref) -> None:
        import oracle

        why = outcome.exception or oracle.check_constants(outcome.value, digits, ref)
        if why:
            self.fail(outcome, why)
        else:
            outcome.units = 4


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanOp:
    kind: str  # "emit", "refuse" or "big"
    catalog: int  # index into the pool, -1 for the 1200-link catalog
    budget: int
    fmt: str
    digits: int
    cap: int | None = None


class ScanCatalog(Workload):
    name = "scan-catalog"
    unit = "rows"
    via_cli = True
    shapes = (2, 3, 4, 5, 6)  # synthetic links per catalog, one catalog each
    formats = ("csv", "table", "json")
    big_links = 1200

    def load(self) -> None:
        from fal_spectrum import cli, numerics

        self.cli = cli
        self.numerics = numerics

    def setup(self) -> None:
        rng = rng_for(self.name, self.seed, "pool")
        self.catalogs = [gen.synthetic_catalog(rng, n) for n in self.shapes]
        for i, links in enumerate(self.catalogs):
            gen.write_catalog(self.path(f"cat{i}.json"), links)
        # Known defect: both multiset walks recurse once per link.
        big = {"L41": L41}
        for i in range(self.big_links):
            name = f"X{i:04d}"
            big[name] = gen.synthetic_link(rng, name, 3 + i % 5)
        self.big = big
        gen.write_catalog(self.path("big.json"), big)
        for digits in (30, 60):
            self.numerics.v_oct(self.numerics.PrecisionContext(digits))
        self.emit_s, self.emit_rows = 0.0, 0

    def links(self, op: ScanOp) -> dict:
        return self.big if op.catalog < 0 else self.catalogs[op.catalog]

    def block(self, index: int) -> list[ScanOp]:
        """Every (catalog, format) pair once, 2 refusals and the 1200-link op.

        The emitting ops cover 15 log-spaced row counts from 150 to 2000.
        Which row count and precision each pair gets rotates with the block
        index, not the seed, so every seed runs the same sizes; the seed
        draws the volumes, the caps and the order.
        """
        rng = rng_for(self.name, self.seed, "block", index)
        pairs = [(c, fmt) for c in range(len(self.shapes)) for fmt in self.formats]
        n = len(pairs)
        ops = []
        for j, (c, fmt) in enumerate(pairs):
            rows = 150 * (2000 / 150) ** (((7 * j + 4 * index) % n + 0.5) / n)
            digits = (30, 60)[(j + index) % 2]
            ops.append(ScanOp("emit", c, gen.budget_for_rows(self.catalogs[c], rows), fmt, digits))
        for k in range(2):
            c = (index + 2 * k) % len(self.shapes)
            work = 4.5e4 * (1.3e6 / 4.5e4) ** ((k + 0.5) / 2)
            cap = rng.randint(100, 1000)
            ops.append(ScanOp("refuse", c, self._refusal_budget(self.catalogs[c], work, cap), self.formats[k], 30, cap))
        ops.append(ScanOp("big", -1, 2, self.formats[index % 3], 30))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _refusal_budget(links: dict, work: float, cap: int) -> int:
        """A budget whose memoized multiset count takes about ``work`` steps
        and whose row count is far above ``cap``."""
        steps = [link.a - 1 for link in links.values()][1:]
        budget = 8
        while sum((budget + 1) * (budget / (2 * s) + 1) for s in steps) < work:
            budget += 8
        while gen.count_multisets([link.a - 1 for link in links.values()], budget) < 100 * cap:
            budget += 8
        return budget

    def argv(self, op: ScanOp) -> list[str]:
        catalog = self.path("big.json" if op.catalog < 0 else f"cat{op.catalog}.json")
        argv = ["scan", catalog, "--budget", str(op.budget), "--format", op.fmt, "--digits", str(op.digits)]
        if op.cap is not None:
            argv += ["--cap", str(op.cap)]
        return argv + ["--output", self.path("rows.out")]

    def run(self, op: ScanOp, recorder=None) -> Outcome:
        out_path = self.path("rows.out")
        if os.path.exists(out_path):
            os.remove(out_path)
        argv = self.argv(op)
        stderr = io.StringIO()
        exception = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback the CLI let through
            code, exception = None, type(exc).__name__
        seconds = time.perf_counter() - start
        text = ""
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                text = handle.read()
        log = f"exit {code} {exception or ''} {stderr.getvalue()}\n".encode()
        return Outcome(seconds, output=text.encode() + log, exit_code=code, stderr=stderr.getvalue(),
                       exception=exception, value=text)

    def tally(self, op: ScanOp, outcome: Outcome) -> None:
        if op.kind == "emit":
            self.emit_s += outcome.seconds
            self.emit_rows += outcome.units

    def summary(self) -> dict:
        return {"us_per_row": self.emit_s / self.emit_rows * 1e6 if self.emit_rows else None}

    def check(self, op: ScanOp, outcome: Outcome, ref) -> None:
        import oracle

        if outcome.exception:
            if op.kind == "big" and outcome.exception == "RecursionError":
                outcome.status, outcome.reason = "defect", "RecursionError on a 1200-link scan"
            else:
                self.fail(outcome, f"{outcome.exception} escaped cli.main")
            return
        if outcome.exit_code != 0:
            if op.kind == "emit" or outcome.exit_code not in (1, 2) or not _error_line(outcome.stderr):
                self.fail(outcome, f"exit {outcome.exit_code}: {outcome.stderr.strip()[:200]}")
            return
        if op.kind == "refuse" or outcome.stderr:
            self.fail(outcome, f"{op.kind} op exited 0 with stderr {outcome.stderr[:100]!r}")
            return
        rows, why = oracle.check_scan(outcome.value, op.fmt, self.links(op), op.budget, op.digits, ref)
        if why:
            self.fail(outcome, why)
        else:
            outcome.units = rows


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchOp:
    mode: str
    l1: str
    l2: str
    target: str
    eps: str
    digits: int


class SearchSweep(Workload):
    name = "search-sweep"
    unit = "recipes"
    block_size = 40
    trace_blocks = 40

    def load(self) -> None:
        from fal_spectrum import approx, catalog, numerics

        self.approx = approx
        self.catalog = catalog
        self.numerics = numerics

    def setup(self) -> None:
        rng = rng_for(self.name, self.seed, "pool")
        links = gen.synthetic_catalog(rng, 5)
        links["Ceil"] = gen.near_ceiling_link()
        self.pool = dict(sorted(links.items()))
        path = self.path("pool.json")
        gen.write_catalog(path, self.pool)
        loaded = self.catalog.load_catalog_file(path)
        self.links = {name: loaded[name] for name in self.pool}
        self.contexts = {d: self.numerics.PrecisionContext(d) for d in (30, 60)}
        for ctx in self.contexts.values():
            self.numerics.v_oct(ctx)
        vd_mod = {name: link.vd_mod() for name, link in self.pool.items()}
        self.eps = gen.Strata(rng, self.block_size, 1e-12, 1e-4)
        names = sorted(self.pool)
        self.pairs = [
            (a, b, *sorted((vd_mod[a], vd_mod[b])))
            for a in names
            for b in names
            if a != b and abs(vd_mod[a] - vd_mod[b]) > Decimal("0.05")
        ]

    def block(self, index: int) -> list[SearchOp]:
        rng = rng_for(self.name, self.seed, "block", index)
        n = self.block_size
        modes = gen.balanced(rng, ("vd", "vdmod"), n)
        digits = gen.balanced(rng, (30, 60), n)
        ops = []
        for mode, d, eps in zip(modes, digits, self.eps.values(index)):
            l1, l2, low, high = rng.choice(self.pairs)
            ops.append(SearchOp(mode, l1, l2, gen.decimal_between(rng, low, high, 22), f"{eps:.3g}", d))
        return ops

    def run(self, op: SearchOp, recorder=None) -> Outcome:
        search = self.approx.approximate_vd if op.mode == "vd" else self.approx.approximate_vd_mod
        l1, l2, ctx = self.links[op.l1], self.links[op.l2], self.contexts[op.digits]
        start = time.perf_counter()
        try:
            recipe = search(op.target, l1, l2, op.eps, ctx)
        except Exception as exc:
            return Outcome(time.perf_counter() - start, exception=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        # Plain attribute reads only, so a traced run records no spans here.
        counts = {link.name: k for link, k in recipe.composition.parts}
        value = (recipe.mode, recipe.k, recipe.l, recipe.m, counts,
                 str(recipe.achieved_vd.evaluated), str(recipe.achieved_vd_mod.evaluated))
        return Outcome(seconds, output=(repr(value) + "\n").encode(), value=value)

    def check(self, op: SearchOp, outcome: Outcome, ref) -> None:
        import oracle

        if outcome.exception:
            self.fail(outcome, outcome.exception)
            return
        mode, k, l, m, counts, achieved_vd, achieved_vdmod = outcome.value
        expected = {name: count for name, count in ((op.l1, m * k), (op.l2, m * l)) if count}
        if mode != op.mode or counts != expected:
            self.fail(outcome, f"recipe {counts} does not match k={k}, l={l}, m={m}")
            return
        comp = ref.table(self.pool).composition(counts)
        why = oracle.check_recipe(comp, op.mode, op.target, op.eps, achieved_vd, achieved_vdmod, op.digits, ref)
        if why:
            self.fail(outcome, why)
        else:
            outcome.units = 1


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    kind: str  # a subcommand, or one of the error kinds
    argv: tuple[str, ...]
    catalog: int = -1
    fmt: str = "table"
    info: tuple = ()


_SUBCOMMANDS = ("constants", "catalog", "validate", "density", "approximate", "bounds", "certify", "classify", "scan")
_EXIT_EXPECTED = {"unknown-link": (1,), "bad-recipe": (1, 2), "low-digits": (1, 2), "missing-dir": (1, 2)}


class CliOneshot(Workload):
    name = "cli-oneshot"
    unit = "invocations"
    block_size = 40
    via_cli = True
    in_process = False
    max_digits = 30
    shapes = (2, 3, 4, 5, 6, 3)  # synthetic links per catalog

    def setup(self) -> None:
        rng = rng_for(self.name, self.seed, "pool")
        self.catalogs = [gen.synthetic_catalog(rng, n) for n in self.shapes]
        for i, links in enumerate(self.catalogs):
            gen.write_catalog(self.path(f"cat{i}.json"), links)
        self.peak_child_kb = 0
        self.env = {k: v for k, v in os.environ.items() if k != "FAL_SPECTRUM_DIGITS"}
        src = os.path.abspath("src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        # One invocation before the first op, so that bytecode is compiled.
        warm = subprocess.run([sys.executable, "-m", "fal_spectrum", "constants"], env=self.env,
                              capture_output=True, timeout=120)
        if warm.returncode != 0:
            raise RuntimeError(f"warm-up invocation failed: {warm.stderr.decode()[-300:]}")

    def block(self, index: int) -> list[CliOp]:
        rng = rng_for(self.name, self.seed, "block", index)
        valid = self.block_size - len(_EXIT_EXPECTED)
        kinds = [_SUBCOMMANDS[i % len(_SUBCOMMANDS)] for i in range(valid)]
        ops = [self._valid_op(rng, kind, fmt) for kind, fmt in zip(kinds, gen.balanced(rng, ("table", "csv", "json"), valid))]
        cat = rng.randrange(len(self.shapes))
        path = self.path(f"cat{cat}.json")
        ops.append(CliOp("unknown-link", ("density", path, "--recipe", "Nope*2"), cat))
        recipe = rng.choice(("L41*x", "L41*0", "L41,,L41", "L41*-3"))
        ops.append(CliOp("bad-recipe", ("density", path, "--recipe", recipe), cat))
        ops.append(CliOp("low-digits", ("constants", "--digits", "5")))
        base = self._valid_op(rng, rng.choice(_SUBCOMMANDS), "table")
        ops.append(CliOp("missing-dir", base.argv + ("--output", self.path("missing/out.txt")), base.catalog))
        rng.shuffle(ops)
        return ops

    def _valid_op(self, rng, kind: str, fmt: str) -> CliOp:
        cat = rng.randrange(len(self.shapes))
        links = self.catalogs[cat]
        path = self.path(f"cat{cat}.json")
        info: tuple = ()
        if kind == "constants":
            argv = ["constants"]
        elif kind == "catalog":
            argv = ["catalog", "list", path]
        elif kind == "validate":
            argv = ["validate", path]
        elif kind == "density":
            names = rng.sample(sorted(links), rng.randint(1, min(3, len(links))))
            argv = ["density", path, "--recipe", ",".join(f"{n}*{rng.randint(1, 5)}" for n in names)]
        elif kind == "approximate":
            vd_mod = {name: link.vd_mod() for name, link in links.items()}
            pairs = [(a, b) for a in links for b in links if a != b and abs(vd_mod[a] - vd_mod[b]) > Decimal("0.05")]
            l1, l2 = rng.choice(pairs)
            low, high = sorted((vd_mod[l1], vd_mod[l2]))
            target = gen.decimal_between(rng, low, high, 18)
            eps = f"{gen.log_uniform(rng, 1e-10, 1e-4):.3g}"
            mode = rng.choice(("vd", "vdmod"))
            info = (l1, l2, target, eps, mode)
            argv = ["approximate", path, "--l1", l1, "--l2", l2, "--target", target, "--eps", eps, "--mode", mode]
        elif kind == "bounds":
            a = rng.randint(2, 60)
            info = (a,)
            argv = ["bounds", "--a", str(a)]
        elif kind in ("certify", "classify"):
            voct = Decimal(gen.V_OCT_TEXT)
            low, high = (voct + Decimal("0.001"), 2 * voct - Decimal("0.001")) if kind == "certify" else (Decimal(3), Decimal(11))
            density = gen.decimal_between(rng, low, high, 14)
            info = (density,)
            argv = [kind, "--density", density]
        else:  # scan
            budget = gen.budget_for_rows(links, gen.log_uniform(rng, 20, 150))
            info = (budget,)
            argv = ["scan", path, "--budget", str(budget)]
        return CliOp(kind, tuple(argv) + ("--format", fmt), cat, fmt, info)

    def run(self, op: CliOp, recorder=None) -> Outcome:
        if recorder is None:
            command = [sys.executable, "-m", "fal_spectrum", *op.argv]
        else:
            spans_path = self.path("child-spans.json")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            command = [sys.executable, os.path.join(HERE, "child.py"), spans_path, *op.argv]
        out_path, err_path = self.path("child.out"), self.path("child.err")
        spawned = time.monotonic()
        start = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(command, env=self.env, stdout=out, stderr=err)
        timer = threading.Timer(120, proc.kill)
        timer.start()
        # wait4 rather than proc.wait, for this child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if seconds >= 120:
            return Outcome(seconds, exit_code=None, exception="timeout")
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            raw_out, stderr = out.read(), err.read().decode()
        stdout = raw_out.decode()
        traceback = "Traceback (most recent call last)" in stderr
        exception = stderr.strip().splitlines()[-1].split(":")[0] if traceback else None
        # Tracebacks name files of the checkout, so only the exception type is hashed.
        log = f"exit {proc.returncode} {exception if traceback else stderr}\n".encode()
        outcome = Outcome(seconds, output=raw_out + log, exit_code=proc.returncode, stderr=stderr,
                          exception=exception, value=stdout)
        if recorder is not None:
            outcome.startup = recorder.merge_child(spans_path, spawned)
        return outcome

    def peak_rss_kb(self) -> int:
        """Peak RSS of the largest CLI child so far."""
        return self.peak_child_kb

    def check(self, op: CliOp, outcome: Outcome, ref) -> None:
        if outcome.exception:
            if op.kind == "missing-dir" and outcome.exception == "FileNotFoundError":
                outcome.status, outcome.reason = "defect", "FileNotFoundError traceback for --output"
            else:
                self.fail(outcome, f"{outcome.exception} traceback: {op.argv}")
            return
        if op.kind in _EXIT_EXPECTED:
            if outcome.exit_code not in _EXIT_EXPECTED[op.kind] or not _error_line(outcome.stderr):
                self.fail(outcome, f"{op.kind}: exit {outcome.exit_code}, stderr {outcome.stderr[:200]!r}")
            else:
                outcome.units = 1
            return
        if outcome.exit_code != 0 or outcome.stderr:
            self.fail(outcome, f"{op.argv}: exit {outcome.exit_code}, stderr {outcome.stderr[:200]!r}")
            return
        try:
            why = self._check_output(op, outcome.value, ref)
        except (KeyError, ValueError, IndexError) as exc:
            why = f"unparseable output ({type(exc).__name__}: {exc})"
        if why:
            self.fail(outcome, f"{op.kind} {op.fmt}: {why}")
        else:
            outcome.units = 1

    def _check_output(self, op: CliOp, text: str, ref) -> str | None:
        import oracle

        digits = 30
        links = self.catalogs[op.catalog] if op.catalog >= 0 else {}
        table = ref.table(links)
        if op.kind == "scan":
            return oracle.check_scan(text, op.fmt, links, op.info[0], digits, ref)[1]
        if op.kind in ("catalog", "validate"):
            rows = oracle.parse_rows(text, op.fmt)
            if op.kind == "validate":
                got = sorted((row["link"], kind) for row in rows for kind in ("spectrum floor", "10*v_tet", "Miyamoto bound")
                             if kind in row["message"] and row["level"] == "warning")
                return None if got == oracle.expected_warnings(links, digits, ref) and len(got) == len(rows) else f"warnings {got}"
            if [row["name"] for row in rows] != list(links):
                return "catalog rows do not list the links in order"
            for row in rows:
                link = links[row["name"]]
                comp = table.composition({link.name: 1})
                why = (
                    oracle.check_combo(row["volume_exact"], comp.volume, digits, ref)
                    or ref.close(row["volume_decimal"], comp.value, digits)
                    or ref.close(row["vd_decimal"], comp.value / link.a, digits)
                    or ref.close(row["vdmod_decimal"], comp.value / (link.a - 1), digits)
                )
                if why or row["a"] != str(link.a) or (link.note and row["note"] != link.note):
                    return f"link {link.name}: {why or 'a or note differs'}"
            return None
        kv = oracle.parse_kv(text, op.fmt)
        if op.kind == "constants":
            return oracle.check_constants([kv["v_oct"], kv["v_tet"], kv["2*v_oct"], kv["10*v_tet"]], digits, ref)
        if op.kind == "density":
            comp = oracle.parse_recipe(kv["recipe"], table)
            if isinstance(comp, str):
                return comp
            requested = {}
            for token in op.argv[op.argv.index("--recipe") + 1].split(","):
                name, _, k = token.partition("*")
                requested[name] = requested.get(name, 0) + int(k)
            if comp.counts != requested or kv["atilde"] != str(comp.atilde) or kv["a"] != str(comp.atilde + 1):
                return f"recipe {kv['recipe']} does not match the request"
            return (
                oracle.check_combo(kv["vol_exact"], comp.volume, digits, ref)
                or ref.close(kv["vol_decimal"], comp.value, digits)
                or oracle.check_density_columns(kv, comp, digits, ref)
            )
        if op.kind == "approximate":
            l1, l2, target, eps, mode = op.info
            comp = oracle.parse_recipe(kv["recipe"], table)
            if isinstance(comp, str):
                return comp
            k, l, m = (int(kv[key]) for key in ("k", "l", "m"))
            expected = {name: count for name, count in ((l1, m * k), (l2, m * l)) if count}
            if comp.counts != expected or kv["mode"] != mode:
                return f"recipe {kv['recipe']} does not match k={k}, l={l}, m={m}"
            return oracle.check_recipe(comp, mode, target, eps, kv["achieved_vd_decimal"],
                                       kv["achieved_vdmod_decimal"], digits, ref) or \
                oracle.check_density_columns(kv, comp, digits, ref, prefix="achieved_")
        if op.kind == "bounds":
            (a,) = op.info
            if kv["euler_characteristic"] != str(1 - a):
                return "wrong Euler characteristic"
            return ref.close(kv["volume_lower_bound"], 2 * (a - 1) * ref.voct, digits) or \
                ref.close(kv["vd_lower_bound"], 2 * ref.voct * (a - 1) / a, digits)
        if op.kind == "certify":
            expected_n = oracle.certify_answer(op.info[0], ref)
            return None if kv["max_augmentations"] == str(expected_n) else f"max_augmentations {kv['max_augmentations']} != {expected_n}"
        if op.kind == "classify":
            expected_w = oracle.classify_answer(op.info[0], ref)
            return None if kv["window"] == expected_w else f"window {kv['window']} != {expected_w}"
        return f"no check for {op.kind}"


WORKLOADS = {cls.name: cls for cls in (ConstantsCold, ScanCatalog, SearchSweep, CliOneshot)}
