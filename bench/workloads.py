"""Seeded request lists, request execution and exact output checks.

Each workload turns ``(seed, seconds)`` into a fixed list of requests, so two
runs of one seed do identical work.  The list is built in *blocks*: a block
covers every stratum of the workload once (every family and order for
``derive``, every family and base dimension for ``chi``, every command kind
for ``cli``) and the seed picks only the values inside a stratum and the
request order.  That keeps the cost of a run nearly independent of the seed,
so the spread between seeds stays small.  The number of blocks is
``seconds`` divided by the measured cost of one block.

Requests call the program through attribute lookups on the ``ellgenus``
package and ``ellgenus.cli`` at call time, so the tracer's wrappers see them.
Checks run only after the whole timed pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import ellgenus
import ellgenus.cli

FAMILIES = ("D5", "E6", "E7", "E8")
TWISTS = tuple(range(-2, 4))
# Twist pairs handed to one (family, order) in ``derive``; a Latin square
# over (family, order) spreads each pair over every order.
TWIST_PAIRS = ((-2, 3), (-1, 2), (0, 1))
DERIVE_ORDERS = (7, 8, 9)
CHI_DIMS = (2, 3, 4, 5, 6)
CLI_SPEC_ORDERS = (4, 5, 6)
CLI_CHI_DIMS = (2, 3, 4, 5)
CLI_CYCLE = 6  # blocks per visit of every (family, w) of ``q spec.json``
BAD_FAMILIES = ("E9", "F4", "G2", "D4")
BAD_BASES = ("pd:x:3", "pd:3", "pq:2:3", "pd:2:3:4", "pd:-1:2", "pd:2:y")

# Wall seconds of one block on a 2-core Intel Xeon VM, Python 3.11.7.
BLOCK_SECONDS = {"derive": 22.6, "chi": 3.8, "cli": 0.55}
# ``ellgenus verify`` opens every cli run and takes about this long there.
VERIFY_SECONDS = 8.0


@dataclass(frozen=True)
class Request:
    """One closed-loop request: what to run and what it is checked against."""

    kind: str  # derive | chi | cli
    key: tuple  # symbolic key: (family or spec, orders) without the base
    params: tuple  # what to run; for cli also the exit code and what to check


def blocks_for(workload, seconds):
    if workload == "cli":
        cycles = round((seconds - VERIFY_SECONDS) / (CLI_CYCLE * BLOCK_SECONDS["cli"]))
        return CLI_CYCLE * max(1, cycles)
    return max(1, round(seconds / BLOCK_SECONDS[workload]))


# ---------------------------------------------------------------------------
# inputs (the program sees only what these produce)


def spec_json(family, a, rng=None):
    """The catalog family presented in P(E (x) L^a), in the spec-file format.

    Bundle exponents shift by ``a`` and each normal root r.a*H + r.b*L becomes
    r.a*H + (r.b + r.a*a)*L; the genus factor is unchanged.  With ``rng`` the
    exponents and the roots come in a seeded order, which changes the order
    of the integrand's products but not the result.
    """
    cat = ellgenus.CATALOG[family]
    bundle = [m + a for m in cat.bundle.exps]
    n_roots = [[r.a, r.b + r.a * a] for r in cat.n_roots]
    if rng is not None:
        rng.shuffle(bundle)
        rng.shuffle(n_roots)
    return {"name": "%s~%d" % (family, a), "bundle": bundle, "n_roots": n_roots}


def twisted_spec(data):
    """The FibrationSpec of a :func:`spec_json` record."""
    return ellgenus.FibrationSpec(
        name=data["name"],
        bundle=ellgenus.BundleSpec(tuple(data["bundle"])),
        n_roots=tuple(ellgenus.RootForm(r, s) for r, s in data["n_roots"]),
    )


def projective_table(d, n):
    """Intersection table of P^d with L = O(n), written from first principles:
    c_i = C(d+1, i) h^i, L = n h, and the integral of h^d is 1."""
    names = [("L", 1)] + [("c%d" % i, i) for i in range(1, d + 1)]
    out = []

    def fill(idx, left, exps, value):
        if idx == len(names):
            if left == 0:
                out.append({"exps": dict(exps), "value": str(value)})
            return
        name, w = names[idx]
        for e in range(0, left // w + 1):
            factor = n if name == "L" else comb(d + 1, w)
            if e:
                exps[name] = e
            else:
                exps.pop(name, None)
            fill(idx + 1, left - e * w, exps, value * factor**e)
        exps.pop(name, None)

    fill(0, d, {}, 1)
    return {"dim": d, "monomials": out}


# ---------------------------------------------------------------------------
# generators


def generate(workload, seed, seconds, workdir=None):
    """The fixed request list of one run.  ``cli`` writes its input files
    (twisted specs, P^d tables) into ``workdir``."""
    rng = random.Random("%s:%d" % (workload, seed))
    blocks = blocks_for(workload, seconds)
    if workload == "derive":
        return _gen_derive(rng, blocks)
    if workload == "chi":
        return _gen_chi(rng, blocks)
    if workload == "cli":
        return _gen_cli(rng, blocks, workdir)
    raise ValueError("unknown workload %r" % (workload,))


def _gen_derive(rng, blocks):
    """Block b gives family j the twist pair TWIST_PAIRS[(i + j + b) % 3] at
    w_i, so no (spec, order) repeats within three blocks.  The (family, w,
    twist) triples are the same for every seed, which keeps the cost of a run
    and its median request independent of the seed; the seed orders the
    requests and the bundle exponents and normal roots of every spec."""
    reqs = []
    for b in range(blocks):
        block = []
        for j, fam in enumerate(FAMILIES):
            for i, w in enumerate(DERIVE_ORDERS):
                for a in TWIST_PAIRS[(i + j + b) % len(TWIST_PAIRS)]:
                    data = spec_json(fam, a, rng)
                    presented = (tuple(data["bundle"]), tuple(map(tuple, data["n_roots"])))
                    block.append(Request("derive", (("spec", fam, a), w, w + 1),
                                         (fam, a, w) + presented))
        rng.shuffle(block)
        reqs.extend(block)
    return reqs


def _gen_chi(rng, blocks):
    reqs = []
    for b in range(blocks):
        block = []
        for fam in FAMILIES:
            for d in CHI_DIMS:
                n = rng.randint(1, d + 3)
                if b == 0 and fam == "E8" and d == 2:
                    n = 3  # the pinned E8 over (P^2, O(3)) in every run
                block.append(Request("chi", (fam, d, d + 2), (fam, d, n)))
        rng.shuffle(block)
        reqs.extend(block)
    return reqs


def _cli(key, argv, expect, check_spec):
    return Request("cli", key, (tuple(argv), expect, check_spec))


def _gen_cli(rng, blocks, workdir):
    if workdir is None:
        raise ValueError("the cli workload needs a directory for its input files")
    written = set()

    def input_file(name, data):
        path = os.path.join(workdir, name)
        if path not in written:
            with open(path, "w") as fh:
                json.dump(data, fh)
            written.add(path)
        return path

    def fam():
        return rng.choice(FAMILIES)

    # ``q spec.json`` is the dearest cheap command and its cost depends on
    # (family, w): every CLI_CYCLE blocks visit each such pair once, and each
    # pair walks through the twists in a seeded order.
    spec_pairs = [(f, w) for f in FAMILIES for w in CLI_SPEC_ORDERS]
    twist_order = {p: rng.sample(TWISTS, len(TWISTS)) for p in spec_pairs}
    visits = dict.fromkeys(spec_pairs, 0)
    reqs = [_cli(("verify",), ["verify"], 0, ("verify",))]
    for b in range(blocks):
        if b % CLI_CYCLE == 0:
            pending = rng.sample(spec_pairs, len(spec_pairs))
        block = []
        for k, fmt in enumerate(("text", "json", "latex")):
            f, w = fam(), 4 + (b + k) % 5
            block.append(_cli((f, w, 7), ["q", f, "--wmax", str(w), "--format", fmt],
                              0, ("q", fmt, f, f, w)))
        for fmt in ("text", "json"):
            f, w = pending.pop()
            a = twist_order[(f, w)][visits[(f, w)] % len(TWISTS)]
            visits[(f, w)] += 1
            path = input_file("spec_%s_%d.json" % (f, a), spec_json(f, a))
            block.append(_cli((("spec", f, a), w, 7),
                              ["q", path, "--wmax", str(w), "--format", fmt], 0,
                              ("q", fmt, "%s~%d" % (f, a), f, w)))
        f, n = fam(), 6 + b % 7
        block.append(_cli((f, "ptable", n), ["ptable", f, "--check", "--nmax", str(n)],
                          0, ("ptable", f, n)))
        dims = rng.sample(CLI_CHI_DIMS, len(CLI_CHI_DIMS))
        for d, use_file in zip(dims, (False, True, False, True)):
            f, n = fam(), rng.randint(1, d + 3)
            if use_file:
                where = ["--base-file",
                         input_file("base_P%d_O%d.json" % (d, n), projective_table(d, n))]
            else:
                where = ["--base", "pd:%d:%d" % (d, n)]
            block.append(_cli((f, d, d + 2), ["chi", f] + where, 0, ("chi", f, d, n)))
        # one invalid invocation per block, alternating the two error kinds
        if b % 2 == 0:
            cmd = rng.choice((["q", "{}"], ["ptable", "{}"], ["chi", "{}", "--base", "pd:2:3"]))
            argv = [t.replace("{}", rng.choice(BAD_FAMILIES)) for t in cmd]
        else:
            argv = ["chi", fam(), "--base", rng.choice(BAD_BASES)]
        block.append(_cli(("invalid",) + tuple(argv), argv, 2, ("invalid",)))
        rng.shuffle(block)
        reqs.extend(block)
    return reqs


# ---------------------------------------------------------------------------
# execution (the timed part)


def build_derive_inputs(reqs):
    """Spec objects for ``derive``, built before timing starts."""
    return {
        r.params: twisted_spec({"name": "%s~%d" % r.params[:2], "bundle": r.params[3],
                                "n_roots": r.params[4]})
        for r in reqs
    }


def execute(req, inputs=None):
    """Run one request and return its raw output."""
    if req.kind == "derive":
        w = req.params[2]
        return ellgenus.derived_q(inputs[req.params], w, w + 1)
    if req.kind == "chi":
        fam, d, n = req.params
        base = ellgenus.BaseSpec.projective_space(d, n)
        return [ellgenus.chi_q(fam, base, q) for q in range(0, d + 2)]
    argv = list(req.params[0])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ellgenus.cli.main(argv)
    return (code, out.getvalue(), err.getvalue())


def digest(output):
    """A stable fingerprint of one output, for traced-vs-untraced equality."""
    if isinstance(output, ellgenus.WSeries):
        body = repr((output.wmax, output.qmax, sorted(output.terms.items())))
    else:
        body = repr(output)
    return hashlib.sha256(body.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks (untimed); each returns None or a one-line failure reason


class Oracle:
    """Memoized reference values shared by the checks of one run."""

    def __init__(self):
        self._closed = {}
        self._series = {}

    def closed_q(self, family, wmax, qmax):
        key = (family, wmax, qmax)
        if key not in self._closed:
            self._closed[key] = ellgenus.closed_form_q(family, wmax, qmax)
        return self._closed[key]

    def chi_values(self, family, d, n):
        """chi_q for q = 0..d+1, as ``chi_q`` computes them: the weight-d,
        y^q class of ``chi_series`` integrated over the base."""
        if (family, d) not in self._series:
            self._series[(family, d)] = ellgenus.chi_series(family, d, d + 2)
        series = self._series[(family, d)]
        base = ellgenus.BaseSpec.projective_space(d, n)
        return [ellgenus.integrate(series.coeff(d, q), base) for q in range(d + 2)]


def check(req, output, oracle):
    if req.kind == "derive":
        fam, a, w = req.params[:3]
        if output != oracle.closed_q(fam, w, w + 1):
            return "derived_q(%s~%d, %d, %d) != closed_form_q" % (fam, a, w, w + 1)
        return None
    if req.kind == "chi":
        return check_chi_values(req.params, output)
    return check_cli(req, output, oracle)


PINNED = {("E8", 2, 3): [0, 270, -270, 0]}


def check_chi_values(params, values):
    fam, d, n = params
    where = "%s over (P^%d, O(%d))" % (fam, d, n)
    dim_y = d + 1
    if len(values) != dim_y + 1:
        return "%s: %d values, expected %d" % (where, len(values), dim_y + 1)
    for q, v in enumerate(values):
        if Fraction(v).denominator != 1:
            return "%s: chi_%d = %s is not an integer" % (where, q, v)
        if v != (-1) ** dim_y * values[dim_y - q]:
            return "%s: Serre duality fails at q=%d" % (where, q)
    if n == d + 1 and values[0] != 1 + (-1) ** dim_y:
        return "%s: anticanonical chi_0 = %s" % (where, values[0])
    pinned = PINNED.get(params)
    if pinned is not None and list(values) != pinned:
        return "%s: %s, pinned %s" % (where, list(values), pinned)
    return None


def _q_text(series, label, wmax, qmax):
    lines = ["Q(%s) expanded to weight %d, y-degree %d:" % (label, wmax, qmax)]
    for q in range(0, qmax + 1):
        part = series.y_slice(q)
        if part.is_zero() and q > wmax + 1:
            continue
        lines.append("  y^%d: %s" % (q, part.to_text()))
    return "\n".join(lines) + "\n"


def check_cli(req, output, oracle):
    argv, expect, spec = req.params
    code, out, err = output
    cmd = " ".join(argv)
    if code != expect:
        return "%s: exit %r, expected %r" % (cmd, code, expect)
    what = spec[0]
    if what == "invalid":
        if out or not err.startswith("error:"):
            return "%s: expected only an error line on stderr" % cmd
        return None
    if err:
        return "%s: unexpected stderr %r" % (cmd, err[:80])
    if what == "verify":
        if out.splitlines()[-1:] != ["PASS (8 suites)"]:
            return "verify did not print PASS (8 suites)"
        return None
    if what == "q":
        _, fmt, label, fam, w = spec
        want = oracle.closed_q(fam, w, 7)
        if fmt == "json":
            got = ellgenus.cli.parse_series_json(json.loads(out))
            return None if got == want else "%s: JSON does not round-trip" % cmd
        if fmt == "latex":
            return None if out == want.to_latex() + "\n" else "%s: latex differs" % cmd
        return None if out == _q_text(want, label, w, 7) else "%s: text differs" % cmd
    if what == "ptable":
        _, fam, nmax = spec
        lines = ["P%d = %s" % (n, ellgenus.p_table_reference(fam, n).to_text())
                 for n in range(nmax + 1)]
        lines.append("check: PASS (n <= %d)" % nmax)
        return None if out == "\n".join(lines) + "\n" else "%s: table differs" % cmd
    _, fam, d, n = spec
    values = oracle.chi_values(fam, d, n)
    lines = ["chi_%d = %s" % (q, v) for q, v in enumerate(values)]
    lines.append("alternating sum = %s" % sum(v * (-1) ** q for q, v in enumerate(values)))
    if out != "\n".join(lines) + "\n":
        return "%s: chi values differ from chi_q" % cmd
    return check_chi_values((fam, d, n), values)


# ---------------------------------------------------------------------------
# recorded input properties


def properties(workload, reqs):
    """Request count, size ranges and repeat shares of one request list."""
    seen, seen_full, repeats, repeats_full = set(), set(), 0, 0
    for r in reqs:
        full = (r.key, r.params)
        repeats += r.key in seen
        repeats_full += full in seen_full
        seen.add(r.key)
        seen_full.add(full)
    props = {
        "requests": len(reqs),
        "repeat_share": repeats / len(reqs),
        "repeat_share_with_base": repeats_full / len(reqs),
    }

    def span(values):
        values = list(values)
        return [min(values), max(values)]

    if workload == "derive":
        props["w"] = span(r.params[2] for r in reqs)
        props["twist_a"] = span(r.params[1] for r in reqs)
        props["families"] = sorted({r.params[0] for r in reqs})
    elif workload == "chi":
        props["d"] = span(r.params[1] for r in reqs)
        props["n"] = span(r.params[2] for r in reqs)
        props["families"] = sorted({r.params[0] for r in reqs})
    else:
        kinds = {}
        for r in reqs:
            spec = r.params[2]
            kind = "q-" + spec[1] if spec[0] == "q" else spec[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        props["commands"] = kinds
        props["invalid_share"] = kinds.get("invalid", 0) / len(reqs)
        chi = [r.params[2] for r in reqs if r.params[2][0] == "chi"]
        props["d"] = span(s[2] for s in chi)
        props["n"] = span(s[3] for s in chi)
    return props
