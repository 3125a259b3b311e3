"""The golden corpus: one short digest per output of the engine.

    python3 tools/golden.py            # compare with the file
    python3 tools/golden.py --write    # rewrite the file

Both run the engine of the ``src/`` beside the tool.

Every entry of ``tests/golden.json`` maps a key, such as
``closed_form_q/E8/w=12,q=12``, to the first 16 hex digits of the SHA-256
of that output's text.  The keys cover:

- ``to_text()`` of ``chi_series`` for the four families, t 0..8;
- ``closed_form_q`` at every (w, q) <= (12, 12);
- ``derived_q`` of the catalog at (w, w + 1) for w 6..11, and of 50 seeded
  twisted and custom specs;
- ``chi_values`` over P^1..P^6 with L = O(n), n -1..d+3;
- ``hirzebruch_class(d)`` for d 0..8 and ``euler_series_e8`` for dmax 1..8;
- the ``repr`` of every catalog spec, of a ``RootForm`` and a
  ``BundleSpec``, and of a ``projective_space`` and a table-built
  ``BaseSpec``;
- 34 CLI calls, invalid ones included: the exit code, stdout, and the
  ``error:`` lines of stderr.  The usage line that precedes a refused
  command line's error line is left out, since it is not an ``error:``
  line.

Without ``--write`` the tool prints each key whose digest changed, is
missing or is new, and exits 1 if there is one.  A change that means to
alter an output rewrites the file and lists the changed keys.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _specs(eg):
    """(label, spec, w): 24 catalog specs in a twisted P(E (x) L^a), then 26
    custom specs of rank 2..4, all drawn from one seed."""
    rng = random.Random(26)
    out = []
    for i in range(24):
        family, a = eg.FAMILIES[i % 4], rng.choice((-2, -1, 1, 2, 3))
        cat = eg.CATALOG[family]
        bundle = eg.BundleSpec(tuple(m + a for m in cat.bundle.exps))
        roots = tuple(eg.RootForm(r.a, r.b + r.a * a) for r in cat.n_roots)
        out.append(("%s~%d" % (family, a), eg.FibrationSpec("t", bundle, roots),
                    rng.randint(4, 9)))
    for _ in range(26):
        rank = rng.randint(2, 4)
        exps = tuple(rng.randint(-2, 3) for _ in range(rank))
        roots = tuple(eg.RootForm(rng.randint(1, 3), rng.randint(-3, 4))
                      for _ in range(rng.randint(0, rank - 1)))
        label = "%s|%s" % (exps, ",".join("%d:%d" % (r.a, r.b) for r in roots))
        out.append((label, eg.FibrationSpec("c", eg.BundleSpec(exps), roots),
                    rng.randint(2, 7)))
    return out


P2 = ({"L": 2}, {"L": 1, "c1": 1}, {"c1": 2}, {"c2": 1})
P3 = ({"L": 3}, {"L": 2, "c1": 1}, {"L": 1, "c1": 2}, {"L": 1, "c2": 1}, {"c1": 3},
      {"c1": 1, "c2": 1}, {"c3": 1})


def _base_file(dim, monos, values):
    """A base-file record: each monomial with its value, or left out where
    the value is None."""
    rows = [{"exps": e, "value": v} for e, v in zip(monos, values) if v is not None]
    return {"dim": dim, "monomials": rows}


def _cli_calls(tmp):
    """The argv lists of the CLI group; input files go under ``tmp``."""
    files = {
        "e8_twisted.json": {"name": "E8~2", "bundle": [2, 4, 5], "n_roots": [[3, 12]]},
        "custom.json": {"name": "w", "bundle": [0, 1, 3], "n_roots": [[2, 3]]},
        "no_roots.json": {"name": "x", "bundle": [0, 1]},
        "float_bundle.json": {"name": "w", "bundle": [0, 2.9, 3], "n_roots": [[3, 6]]},
        "p3_o4.json": _base_file(3, P3, [64, 64, 64, 24, 64, 24, 4]),
        "p2_half.json": _base_file(2, P2, ["9/2", "9/2", "9/2", "3/2"]),
        "p2_float.json": _base_file(2, P2, [4.5, 4.5, 4.5, 1.5]),
        "p2_missing.json": _base_file(2, P2, [None, 9, 9, 3]),
        "list.json": [1, 2],
    }
    for name, data in files.items():
        (tmp / name).write_text(json.dumps(data))
    (tmp / "broken.json").write_text("")
    f = {name: str(tmp / name) for name in list(files) + ["broken.json"]}
    return [
        ["q", "E8"],
        ["q", "E6", "--wmax", "4", "--qmax", "3", "--format", "json"],
        ["q", "D5", "--wmax", "3", "--format", "latex"],
        ["q", "E7", "--closed"],
        ["q", f["e8_twisted.json"], "--wmax", "4"],
        ["q", f["custom.json"], "--wmax", "3", "--qmax", "2", "--format", "json"],
        ["ptable", "E8", "--check"],
        ["ptable", "D5", "--nmax", "4"],
        ["ptable", "E7", "--check", "--nmax", "8"],
        ["chi", "E8", "--base", "pd:3:4"],
        ["chi", "E6", "--base", "pd:2:3", "--q", "1"],
        ["chi", "D5", "--base", "pd:2:3", "--class"],
        ["chi", "E7", "--base-file", f["p3_o4.json"]],
        ["chi", f["custom.json"], "--base", "pd:2:1"],
        ["chi", "E8", "--base", "pd:0:5"],
        ["chi", "E6", "--base-file", f["p2_half.json"]],
        ["verify"],
        ["verify", "--family", "E6", "--wmax", "4", "--qmax", "5"],
        ["q", "E9"],
        ["ptable", "F4"],
        ["chi", "E8"],
        ["chi", "E8", "--base", "pd:x:3"],
        ["chi", "E8", "--base", "pd:-1:2"],
        ["chi", "E8", "--base", "pd:2:3", "--q", "7"],
        ["chi", "E8", "--base", "pd:2:3", "--q", "x"],
        ["q", "E8", "--wmax", "-1"],
        ["ptable", "E8", "--nmax", "x"],
        ["q", f["custom.json"], "--closed"],
        ["q", f["no_roots.json"]],
        ["q", f["float_bundle.json"]],
        ["q", f["list.json"]],
        ["chi", "E8", "--base-file", f["p2_float.json"]],
        ["chi", "E8", "--base-file", f["p2_missing.json"]],
        ["chi", "E8", "--base-file", f["broken.json"]],
    ]


def _cli_text(main, argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    text = "exit %s\n%s--- stderr\n%s\n" % (code, out.getvalue(), "\n".join(errors))
    return text.replace(str(tmp), "<tmp>")


def corpus():
    """Every (key, output text) pair of the corpus, in a fixed order."""
    import ellgenus as eg
    from ellgenus.cli import main

    for family in eg.FAMILIES:
        for t in range(9):
            yield "chi_series/%s/t=%d" % (family, t), eg.chi_series(family, t).to_text()
    for family in eg.FAMILIES:
        for w in range(13):
            for q in range(13):
                yield ("closed_form_q/%s/w=%d,q=%d" % (family, w, q),
                       eg.closed_form_q(family, w, q).to_text())
    for family in eg.FAMILIES:
        for w in range(6, 12):
            yield ("derived_q/%s/w=%d" % (family, w),
                   eg.derived_q(eg.CATALOG[family], w, w + 1).to_text())
    for i, (label, spec, w) in enumerate(_specs(eg)):
        yield ("derived_q/%02d %s/w=%d" % (i, label, w),
               eg.derived_q(spec, w, w + 1).to_text())
    for family in eg.FAMILIES:
        for d in range(1, 7):
            for n in range(-1, d + 4):
                base = eg.BaseSpec.projective_space(d, n)
                yield ("chi_values/%s/P%d/O(%d)" % (family, d, n),
                       str(eg.chi_values(family, base)))
    for d in range(9):
        yield "hirzebruch_class/d=%d" % d, eg.hirzebruch_class(d).to_text()
    for d in range(1, 9):
        yield "euler_series_e8/dmax=%d" % d, eg.euler_series_e8(d).to_text()
    for family in eg.FAMILIES:
        yield "repr/CATALOG/%s" % family, repr(eg.CATALOG[family])
    yield "repr/RootForm", repr(eg.RootForm(2, -3))
    yield "repr/BundleSpec", repr(eg.BundleSpec([0, 1, 1, 1]))
    yield "repr/BaseSpec/projective_space", repr(eg.BaseSpec.projective_space(3, 4))
    table = {(("L", 2),): 9, (("L", 1), ("c1", 1)): Fraction(9, 2),
             (("c1", 2),): 9, (("c2", 1),): 3}
    yield "repr/BaseSpec/table", repr(eg.BaseSpec(2, table))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, argv in enumerate(_cli_calls(tmp)):
            label = " ".join(a.replace(str(tmp) + "/", "") for a in argv)
            yield "cli/%02d %s" % (i, label), _cli_text(main, argv, tmp)


def digests():
    """{key: digest} of the corpus as this tree computes it."""
    out = {}
    for key, text in corpus():
        if key in out:
            raise ValueError("duplicate corpus key %r" % key)
        out[key] = digest(text)
    return out


def changed(want, got):
    """The keys on which two digest maps differ, each with a one-word reason."""
    def reason(k):
        return "missing" if k not in got else "new" if k not in want else "changed"

    return ["%s: %s" % (k, reason(k)) for k in sorted(want.keys() | got.keys())
            if want.get(k) != got.get(k)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite tests/golden.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))  # the engine of this tree
    got = digests()
    if args.write:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print("wrote %d digests to %s" % (len(got), GOLDEN))
        return 0
    diff = changed(json.loads(GOLDEN.read_text()), got)
    for line in diff:
        print(line)
    print("%d of %d keys differ" % (len(diff), len(got)))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
