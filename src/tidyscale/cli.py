"""Configuration-driven front end for the scale and tidiness machinery.

Configs are nested key-value text with exact numerics: integers stay
integers and every non-integer rational is written as a string like
"1/3"; floats are rejected wherever they appear.  Human-readable reports
go to standard output, which is byte deterministic like the machine form
that --out writes; the elapsed time goes to standard error.  The machine
form round-trips through the standard JSON parser.

Exit status: 0 success, 1 a verification or golden comparison failed,
2 bad input (config, flags, unknown names), 3 a resource cap was hit,
4 an internal error.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import yaml

from . import finprod as fp
from . import invariants as inv
from . import padic as pd
from . import torus as tr
from .errors import InputError, ResourceCapError, TidyscaleError
from .exactmath import is_prime
from .finprod import DEFAULT_CAP
from .invariants import DEFAULT_WORD_LENGTH

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

DEFAULT_DEPTH = 8

GENERIC_COMMANDS = ("scale", "tidy", "eigenfactors", "invariants", "verify")
EXAMPLE_NAMES = ("3.5", "5.7", "6.10", "6.11", "6.17")


# ---------------------------------------------------------------------------
# config loading


def _reject_floats(node, path):
    if isinstance(node, float):
        raise InputError(
            f"{path}: floats are forbidden; write the exact value as a"
            " rational string"
        )
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_floats(value, f"{path}.{key}")
    elif isinstance(node, list):
        for k, value in enumerate(node):
            _reject_floats(value, f"{path}[{k}]")


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, str(path))


class _DuplicateKeyError(yaml.YAMLError):
    def __init__(self, key, mark):
        super().__init__(f"duplicate key {key!r}")
        self.key = key
        self.problem_mark = mark


# libyaml parses several times faster than the pure-Python loader.  The
# error marks agree, except that a flow collection left open at the end of
# a file without a final newline is reported on the line after it.
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _StrictConstructor:
    """Loader mixin: refuses a mapping key given twice, and turns a value
    that its tag cannot take (`!!int x`, `!!bool maybe`) into a constructor
    error marked at its node."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, KeyError, AttributeError, TypeError, OverflowError) as exc:
            raise yaml.constructor.ConstructorError(
                None, None, f"cannot construct {node.tag}", node.start_mark
            ) from exc

    def construct_document(self, node):
        # check the composed tree before construction: building a mapping
        # flattens the `<<` sources it merges in, in place
        seen_nodes, stack = set(), [node]
        while stack:
            here = stack.pop()
            if id(here) in seen_nodes:
                continue
            seen_nodes.add(id(here))
            if isinstance(here, yaml.MappingNode):
                keys = set()
                for key_node, value_node in here.value:
                    stack.append(value_node)
                    if key_node.tag == "tag:yaml.org,2002:merge":
                        continue  # keys merged in by `<<` may be overridden
                    if not isinstance(key_node, yaml.ScalarNode):
                        continue  # the base constructor reports these
                    key = self.construct_object(key_node)
                    if key in keys:
                        raise _DuplicateKeyError(key, key_node.start_mark)
                    keys.add(key)
            elif isinstance(here, yaml.SequenceNode):
                stack.extend(here.value)
        return super().construct_document(node)


class _UniqueKeyLoader(_StrictConstructor, _SafeLoader):
    """The config loader: libyaml's safe loader where it is built."""


def parse_config(text, source):
    try:
        data = yaml.load(text, Loader=_UniqueKeyLoader)
    except _DuplicateKeyError as exc:
        mark = exc.problem_mark
        raise InputError(
            f"{source}:{mark.line + 1}:{mark.column + 1}:"
            f" duplicate key {exc.key!r}"
        ) from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{source}: " if mark is None else (
            f"{source}:{mark.line + 1}:{mark.column + 1}: "
        )
        raise InputError(where + "malformed config") from exc
    if not isinstance(data, dict):
        raise InputError(f"{source}: top level must be a mapping")
    _reject_floats(data, source)
    return data


def _need(cfg, key, kind, path):
    if key not in cfg:
        raise InputError(f"{path}.{key}: missing")
    value = cfg[key]
    if kind is int and isinstance(value, bool):
        raise InputError(f"{path}.{key}: expected an integer")
    if not isinstance(value, kind):
        raise InputError(f"{path}.{key}: expected {kind.__name__}")
    return value


def _rational(value, path):
    if isinstance(value, bool):
        raise InputError(f"{path}: expected a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path}: not a rational: {value!r}") from exc
    raise InputError(f"{path}: expected an integer or a rational string")


def _int_list(value, path):
    if not isinstance(value, list):
        raise InputError(f"{path}: expected a list of integers")
    out = []
    for k, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, int):
            raise InputError(f"{path}[{k}]: expected an integer")
        out.append(x)
    return out


def _generator_items(cfg, path):
    entries = _need(cfg, "generators", list, path)
    if not entries:
        raise InputError(f"{path}.generators: at least one generator required")
    seen = set()
    for k, entry in enumerate(entries):
        here = f"{path}.generators[{k}]"
        if not isinstance(entry, dict):
            raise InputError(f"{here}: expected a mapping")
        name = _need(entry, "name", str, here)
        if name in seen:
            raise InputError(f"{here}.name: duplicate generator name {name!r}")
        seen.add(name)
        yield name, entry, here


# ---------------------------------------------------------------------------
# backend construction


class Job:
    """Parsed config bound to live objects for one backend family."""

    def __init__(self, kind, names, gens, options, prime=None, extras=None):
        self.kind = kind
        self.names = tuple(names)
        self.gens = list(gens)
        self.options = options
        self.prime = prime
        self.extras = extras or {}

    def backend(self):
        if self.kind == "padic":
            return inv.DiagonalBackend(self.gens)
        if self.kind == "torus":
            return inv.PatternBackend(
                self.extras["size"], self.prime, self.extras["weights"]
            )
        return inv.WindowedBackend(
            self.gens,
            self.extras["base"],
            depth=self.options.depth,
            cap=self.options.cap,
        )


def build_job(cfg, options, source):
    kind = _need(cfg, "backend", str, source)
    if "commands" in cfg:
        allowed = cfg["commands"]
        if not isinstance(allowed, list) or not all(
            isinstance(c, str) for c in allowed
        ):
            raise InputError(f"{source}.commands: expected a list of commands")
        for c in allowed:
            if c not in GENERIC_COMMANDS:
                raise InputError(f"{source}.commands: unknown command {c!r}")
        if options.command in GENERIC_COMMANDS and options.command not in allowed:
            raise InputError(
                f"{source}: config does not request command"
                f" {options.command!r}"
            )
    if kind == "padic":
        return _build_padic(cfg, options, source)
    if kind == "torus":
        return _build_torus(cfg, options, source)
    if kind == "finprod":
        return _build_finprod(cfg, options, source)
    raise InputError(f"{source}.backend: unknown backend {kind!r}")


def _config_prime(cfg, options, source):
    prime = options.prime
    if prime is None:
        prime = _need(cfg, "prime", int, source)
    return prime


def _build_padic(cfg, options, source):
    prime = _config_prime(cfg, options, source)
    names, gens = [], []
    for name, entry, here in _generator_items(cfg, source):
        raw = _need(entry, "matrix", list, here)
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise InputError(f"{here}.matrix[{i}]: expected a list")
            rows.append(
                tuple(
                    _rational(x, f"{here}.matrix[{i}][{j}]")
                    for j, x in enumerate(row)
                )
            )
        names.append(name)
        gens.append(pd.PAdicAutomorphism(tuple(rows), prime))
    dims = {g.dimension for g in gens}
    if len(dims) != 1:
        raise InputError(f"{source}.generators: matrix sizes differ: {sorted(dims)}")
    return Job("padic", names, gens, options, prime=prime)


def _build_torus(cfg, options, source):
    prime = _config_prime(cfg, options, source)
    if not is_prime(prime):
        raise InputError(f"{source}.prime: {prime!r} is not a prime")
    size = _need(cfg, "size", int, source)
    names, weights = [], []
    for name, entry, here in _generator_items(cfg, source):
        w = _int_list(_need(entry, "weights", list, here), f"{here}.weights")
        if len(w) != size:
            raise InputError(f"{here}.weights: expected {size} entries")
        names.append(name)
        weights.append(tuple(w))
    gens = [tr.DiagonalAutomorphism(w) for w in weights]
    return Job(
        "torus", names, gens, options, prime=prime,
        extras={"size": size, "weights": tuple(weights)},
    )


_FIBERS = {
    "s3": fp.s3_group,
    "order8": fp.order8_group,
}


def _fiber_group(label, path):
    if not isinstance(label, str):
        raise InputError(f"{path}: expected a fiber name")
    if label.startswith("cyclic(") and label.endswith(")"):
        try:
            n = int(label[7:-1])
        except ValueError as exc:
            raise InputError(f"{path}: bad cyclic order in {label!r}") from exc
        return fp.cyclic_group(n)
    if label in _FIBERS:
        return _FIBERS[label]()
    raise InputError(
        f"{path}: unknown fiber {label!r}; use cyclic(n), s3, or order8"
    )


def _element(fib, ref, path):
    if isinstance(ref, bool):
        raise InputError(f"{path}: bad element reference")
    if isinstance(ref, int):
        if not 0 <= ref < fib.order:
            raise InputError(f"{path}: element index {ref} out of range")
        return ref
    if isinstance(ref, str):
        try:
            return fib.index_of(ref)
        except ValueError as exc:
            raise InputError(
                f"{path}: no element named {ref!r} in this fiber"
            ) from exc
    raise InputError(f"{path}: expected an element name or index")


def _tail(fib, value, path):
    if value == "all":
        return frozenset(range(fib.order))
    if not isinstance(value, list):
        raise InputError(f"{path}: expected \"all\" or a list of elements")
    return frozenset(_element(fib, x, f"{path}[{k}]") for k, x in enumerate(value))


def _fiber_map(fib, entry, path):
    """An automorphism of the fiber given as inner conjugation or images."""
    if "inner" in entry:
        return fib.inner(_element(fib, entry["inner"], f"{path}.inner"))
    if "map" in entry:
        images = entry["map"]
        if not isinstance(images, list) or len(images) != fib.order:
            raise InputError(f"{path}.map: expected {fib.order} images")
        return tuple(
            _element(fib, x, f"{path}.map[{k}]") for k, x in enumerate(images)
        )
    raise InputError(f"{path}: expected an \"inner\" element or a \"map\"")


def _build_finprod(cfg, options, source):
    fib = _fiber_group(_need(cfg, "fiber", str, source), f"{source}.fiber")
    period = cfg.get("period", 1)
    if isinstance(period, bool) or not isinstance(period, int):
        raise InputError(f"{source}.period: expected an integer")
    left = _tail(fib, cfg.get("left_tail", "all"), f"{source}.left_tail")
    right = _tail(fib, cfg.get("right_tail", "all"), f"{source}.right_tail")
    amb = fp.AmbientGroup(fib, period, left, right)
    base = _base_subgroup(cfg.get("base", "tails"), amb, f"{source}.base")
    names, gens = [], []
    for name, entry, here in _generator_items(cfg, source):
        d = entry.get("shift", 0)
        if isinstance(d, bool) or not isinstance(d, int):
            raise InputError(f"{here}.shift: expected an integer")
        sigma = None
        if "rotate" in entry:
            sigma = tuple(_int_list(entry["rotate"], f"{here}.rotate"))
        gmap = None
        if "global" in entry:
            if not isinstance(entry["global"], dict):
                raise InputError(f"{here}.global: expected a mapping")
            gmap = _fiber_map(fib, entry["global"], f"{here}.global")
        twists = []
        for k, tw in enumerate(entry.get("twists", ())):
            tw_path = f"{here}.twists[{k}]"
            if not isinstance(tw, dict):
                raise InputError(f"{tw_path}: expected a mapping")
            at = _int_list(_need(tw, "at", list, tw_path), f"{tw_path}.at")
            if len(at) != 2:
                raise InputError(f"{tw_path}.at: expected [slot, copy]")
            twists.append((tuple(at), _fiber_map(fib, tw, tw_path)))
        names.append(name)
        gens.append(
            fp.ShiftAutomorphism(
                amb, d=d, sigma=sigma, global_map=gmap, twists=tuple(twists)
            )
        )
    return Job(
        "finprod", names, gens, options,
        extras={"ambient": amb, "base": base, "fiber": fib},
    )


def _base_subgroup(value, amb, path):
    if value == "tails":
        return fp._tails_only(amb, amb.left_tail, amb.right_tail)
    if not isinstance(value, dict):
        raise InputError(f"{path}: expected \"tails\" or a window mapping")
    fib = amb.fiber
    window = _int_list(_need(value, "window", list, path), f"{path}.window")
    if len(window) != 2:
        raise InputError(f"{path}.window: expected [lo, hi]")
    lo, hi = window
    cols = {}
    for k, entry in enumerate(value.get("entries", ())):
        here = f"{path}.entries[{k}]"
        if not isinstance(entry, dict):
            raise InputError(f"{here}: expected a mapping")
        at = _int_list(_need(entry, "at", list, here), f"{here}.at")
        if len(at) != 2:
            raise InputError(f"{here}.at: expected [slot, copy]")
        allowed = _need(entry, "allowed", list, here)
        cols[tuple(at)] = tuple(
            _element(fib, x, f"{here}.allowed[{j}]")
            for j, x in enumerate(allowed)
        )
    left = right = None
    if "left" in value:
        left = _tail(fib, value["left"], f"{path}.left")
    if "right" in value:
        right = _tail(fib, value["right"], f"{path}.right")
    return fp.product_subgroup(amb, lo, hi, cols, left=left, right=right)


# ---------------------------------------------------------------------------
# displays


def _tail_names(fib, tail):
    if tail == frozenset(range(fib.order)):
        return "full"
    names = [fib.names[i] for i in sorted(tail)]
    return "{" + ",".join(names) + "}"


def display_windowed(sub):
    fib = sub.ambient.fiber
    if sub.lo == sub.hi:
        window = f"empty window at {sub.lo}"
    else:
        window = (
            f"window [{sub.lo},{sub.hi}) with {len(sub.elements)} elements"
        )
    return (
        f"{window}, tails {_tail_names(fib, sub.left)}"
        f" | {_tail_names(fib, sub.right)}"
    )


def windowed_data(sub):
    fib = sub.ambient.fiber
    return {
        "lo": sub.lo,
        "hi": sub.hi,
        "elements": sorted(
            [fib.names[v] for v in elem] for elem in sub.elements
        ),
        "left": sorted(fib.names[i] for i in sub.left),
        "right": sorted(fib.names[i] for i in sub.right),
        "display": display_windowed(sub),
    }


def lattice_data(lat):
    data = lat.to_data()
    data["basis"] = [[str(x) for x in row] for row in data["basis"]]
    return data


def pattern_data(pat):
    return {"size": pat.n, "bounds": [list(row) for row in pat.bounds]}


# ---------------------------------------------------------------------------
# generic commands


def _word_for(job, name):
    return (job.names.index(name) + 1,)


def cmd_scale(job):
    backend = job.backend()
    results = {}
    lines = []
    for name in job.names:
        word = _word_for(job, name)
        s, s_inv = backend.scale_pair(word)
        module = backend.modular_ratio(word)
        results[name] = {
            "s": s,
            "s_inverse": s_inv,
            "module": str(module),
        }
        lines.append(f"{name}: s = {s}")
        lines.append(f"{name}: s(inverse) = {s_inv}")
        lines.append(f"{name}: module = {module}")
    return {"scales": results}, lines, [], False


def cmd_tidy(job):
    if job.kind == "padic":
        return _tidy_padic(job)
    if job.kind == "torus":
        return _tidy_torus(job)
    return _tidy_finprod(job)


def _tidy_padic(job):
    gens = job.gens
    tidy = pd.common_tidy(gens) if len(gens) > 1 else pd.step1_tidy(gens[0])
    results = {"lattice": lattice_data(tidy), "generators": {}}
    lines = [f"common tidy lattice: rank {tidy.rank}, scale exponent {tidy.exponent}"]
    for name, g in zip(job.names, gens):
        s = pd.scale(g)
        idx = pd.expansion_index(g, tidy)
        ok = idx == s
        results["generators"][name] = {
            "scale": s,
            "expansion_index": idx,
            "tidy": ok,
        }
        lines.append(f"{name}: scale {s}, displacement {idx}, tidy={ok}")
    return results, lines, [], not all(
        v["tidy"] for v in results["generators"].values()
    )


def _tidy_torus(job):
    base = tr.PatternSubgroup(
        job.extras["size"],
        tuple(
            tuple(0 for _ in range(job.extras["size"]))
            for _ in range(job.extras["size"])
        ),
    )
    results = {"pattern": pattern_data(base), "generators": {}}
    lines = [f"standard block of size {job.extras['size']}"]
    for name, g in zip(job.names, job.gens):
        # measured through the conjugate, so it checks the closed form
        img = tr.conjugate(base, g)
        got = tr.index_exponent(img.intersect(base), img)
        want = tr.displacement_exponent(base, g)
        ok = got == want
        results["generators"][name] = {
            "displacement_exponent": got,
            "formula_exponent": want,
            "tidy": ok,
        }
        lines.append(
            f"{name}: displacement exponent {got}, formula {want}, tidy={ok}"
        )
    return results, lines, [], not all(
        v["tidy"] for v in results["generators"].values()
    )


def _tidy_finprod(job):
    base = job.extras["base"]
    depth = job.options.depth
    cap = job.options.cap
    results = {"base": windowed_data(base), "generators": {}}
    lines = [f"base: {display_windowed(base)}"]
    failed = False
    for name, g in zip(job.names, job.gens):
        trace = fp.tidying_procedure(g, base, depth, cap)
        ok = bool(trace.t1 and trace.t2)
        failed = failed or not ok
        results["generators"][name] = {
            "result": windowed_data(trace.result),
            "scale": trace.scale,
            "trim_indices": list(trace.trim_indices),
            "step1_complete": bool(trace.step1_complete),
            "k_exact": bool(trace.k_exact),
            "t1": bool(trace.t1),
            "t2": bool(trace.t2),
            "minimal": bool(trace.minimal),
        }
        lines.append(
            f"{name}: tidied to {display_windowed(trace.result)};"
            f" scale {trace.scale}, minimal={trace.minimal}"
        )
    if len(job.gens) > 1:
        joint = fp.common_tidy_iterative(job.gens, base, depth, cap)
        results["joint"] = {
            "found": bool(joint.found),
            "rounds": joint.rounds,
            "report": joint.report,
            "subgroup": windowed_data(joint.subgroup) if joint.found else None,
        }
        if joint.found:
            lines.append(
                f"joint: common tidy {display_windowed(joint.subgroup)}"
                f" after {joint.rounds} rounds"
            )
        else:
            lines.append(f"joint: {joint.report}")
    return results, lines, [], failed


def _record_data(rec):
    return {
        "factor": rec.identifier,
        "t": rec.t,
        "rho": list(rec.rho),
        "delta": rec.delta,
        "complete": bool(rec.complete),
    }


def cmd_eigenfactors(job):
    backend = job.backend()
    records = inv.relative_scale_table(backend, job.options.word_length)
    results = {
        "records": [_record_data(r) for r in records],
        "inert": backend.inert_summary(),
    }
    lines = []
    for r in records:
        tail = "" if r.complete else "  (witness exceeds the word bound)"
        lines.append(
            f"{r.identifier}: t = {r.t}, rho = {tuple(r.rho)},"
            f" delta = {r.delta}{tail}"
        )
    if not records:
        lines.append("no displaced eigenfactors: every generator fixes the base")
    if results["inert"]:
        lines.append(f"inert: {results['inert']}")
    return results, lines, [], False


def _report_invariants(backend, word_length):
    rep = inv.full_report(backend, word_length)
    results = {
        "records": [_record_data(r) for r in rep.records],
        "factor_number": rep.factor_number,
        "rank": rep.rank,
        "corank_free": rep.corank_free,
        "corank_torsion": list(rep.corank_torsion),
        "m_points": [list(p) for p in rep.m_points],
        "extreme_count": rep.extreme_count,
        "doubled_area": rep.doubled_area,
        "hull_notice": rep.hull_notice,
        "separation": [list(x) for x in rep.separation],
    }
    lines = [
        f"factor number {rep.factor_number}, rank {rep.rank},"
        f" corank free rank {rep.corank_free}"
        + (
            f" with torsion {list(rep.corank_torsion)}"
            if rep.corank_torsion
            else ""
        ),
        f"functional points: {sorted(set(rep.m_points))}",
    ]
    if rep.hull_notice:
        lines.append(rep.hull_notice)
    elif rep.factor_number:
        lines.append(
            f"extreme points {rep.extreme_count},"
            f" doubled hull area {rep.doubled_area}"
        )
        lines.append(f"separating functionals: {[list(x) for x in rep.separation]}")
    return rep, results, lines


def _check_expectations(expect, results, path):
    """Compare configured expectations against computed results."""
    mismatches = []
    for key, wanted in expect.items():
        here = f"{path}.{key}"
        if key == "records":
            by_id = {r["factor"]: r for r in results["records"]}
            if not isinstance(wanted, list):
                raise InputError(f"{here}: expected a list")
            for k, pin in enumerate(wanted):
                if not isinstance(pin, dict) or "factor" not in pin:
                    raise InputError(f"{here}[{k}]: expected a factor mapping")
                got = by_id.get(pin["factor"])
                if got is None:
                    mismatches.append(f"{pin['factor']}: no such record")
                    continue
                for field in ("t", "rho", "delta", "complete"):
                    if field in pin and pin[field] != got[field]:
                        mismatches.append(
                            f"{pin['factor']}.{field}:"
                            f" expected {pin[field]!r}, got {got[field]!r}"
                        )
            continue
        if key == "m_points":
            if not isinstance(wanted, list):
                raise InputError(f"{here}: expected a list of points")
            want = sorted(tuple(p) for p in wanted)
            got = sorted(tuple(p) for p in results["m_points"])
            if want != got:
                mismatches.append(f"m_points: expected {want}, got {got}")
            continue
        if key not in results:
            raise InputError(f"{here}: unknown expectation")
        if results[key] != wanted:
            mismatches.append(
                f"{key}: expected {wanted!r}, got {results[key]!r}"
            )
    return mismatches


def cmd_invariants(job, expect=None):
    backend = job.backend()
    _, results, lines = _report_invariants(backend, job.options.word_length)
    failed = False
    if expect:
        mismatches = _check_expectations(expect, results, "expect")
        for m in mismatches:
            lines.append(f"[MISMATCH] {m}")
        failed = bool(mismatches)
        if not mismatches:
            lines.append("expectations confirmed")
    return results, lines, [], failed


def cmd_verify(job, expect=None):
    backend = job.backend()
    records = inv.relative_scale_table(backend, job.options.word_length)
    if expect and "records" in expect:
        pins = expect["records"]
        if not isinstance(pins, list):
            raise InputError("expect.records: expected a list")
        by_id = {}
        for k, pin in enumerate(pins):
            if not isinstance(pin, dict) or "factor" not in pin:
                raise InputError(f"expect.records[{k}]: expected a factor mapping")
            by_id[pin["factor"]] = pin
        patched = []
        for rec in records:
            pin = by_id.pop(rec.identifier, None)
            if pin is None:
                patched.append(rec)
                continue
            fields = {}
            if "t" in pin:
                fields["t"] = pin["t"]
            if "rho" in pin:
                fields["rho"] = tuple(pin["rho"])
            patched.append(replace(rec, **fields))
        if by_id:
            raise InputError(
                "expect.records: unknown factors "
                + ", ".join(sorted(by_id))
            )
        records = patched
    report = inv.verify_suite(backend, records, job.options.word_length)
    ledger = [
        {"name": c.name, "ok": bool(c.ok), "witness": c.witness}
        for c in report.checks
    ]
    lines = []
    for c in report.checks:
        if c.ok:
            lines.append(f"[ok]   {c.name}")
        else:
            lines.append(f"[FAIL] {c.name}: {c.witness}")
    failed = not report.ok
    if failed:
        names = ", ".join(c.name for c in report.failures())
        lines.append(f"verification failed: {names}")
    return {"checks": ledger}, lines, ledger, failed


# ---------------------------------------------------------------------------
# built-in worked examples


def _example_source(filename):
    return resources.files("tidyscale").joinpath("examples", filename)


def example_config(filename):
    res = _example_source(filename)
    try:
        text = res.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise InputError(f"missing packaged config {filename}") from exc
    return parse_config(text, filename)


def _example_3_5(options):
    """Two commuting shifts whose ratio swaps the fiber copies."""
    # the catalogue entry is exact at depth 6; flags do not move it
    options = replace_option(options, depth=6, word_length=DEFAULT_WORD_LENGTH)
    results = {"fibers": {}}
    lines = []
    for label, filename in (("cyclic2", "3.5.yaml"), ("s3", "3.5.alt.yaml")):
        job = build_job(example_config(filename), options, filename)
        base = job.extras["base"]
        depth = options.depth
        a1, a2 = job.gens
        gamma = a1.inverse().compose(a2)
        entry = {"generators": {}}
        for name, g in zip(job.names, (a1, a2)):
            trace = fp.tidying_procedure(g, base, depth, options.cap)
            tidy = bool(fp.is_tidy(g, base, depth, options.cap))
            entry["generators"][name] = {
                "tidy": tidy,
                "scale": fp.displacement_index(g, base, options.cap),
                "minimal": bool(trace.minimal),
            }
            lines.append(
                f"[{label}] {name}: tidy={tidy},"
                f" scale {entry['generators'][name]['scale']}"
            )
        t1 = fp.check_t1(gamma, base, depth, options.cap)
        inter = fp.meet(base, fp.apply(gamma, base, options.cap), options.cap)
        trace = fp.tidying_procedure(gamma, base, depth, options.cap)
        fixed = fp.apply(gamma, trace.result, options.cap) == trace.result
        entry["ratio"] = {
            "tidy_at_base": bool(fp.is_tidy(gamma, base, depth, options.cap)),
            "t1_at_base": bool(t1.ok),
            "intersection": windowed_data(inter),
            "intersection_invariant": bool(
                fp.apply(gamma, inter, options.cap) == inter
            ),
            "tidied": {
                "subgroup": windowed_data(trace.result),
                "scale": trace.scale,
                "fixed": bool(fixed),
            },
        }
        lines.append(
            f"[{label}] ratio: tidy at base ="
            f" {entry['ratio']['tidy_at_base']}"
        )
        lines.append(
            f"[{label}] ratio intersection: {display_windowed(inter)}"
        )
        lines.append(
            f"[{label}] ratio tidied: scale {trace.scale},"
            f" invariant={fixed}"
        )
        results["fibers"][label] = entry
    return results, lines


def _example_5_7(options):
    """A local twist against product subgroups over a two-sided tail."""
    options = replace_option(options, depth=6, word_length=DEFAULT_WORD_LENGTH)
    filename = "5.7.yaml"
    job = build_job(example_config(filename), options, filename)
    amb = job.extras["ambient"]
    fib = job.extras["fiber"]
    shift, twist = job.gens
    b = amb.left_tail
    e = fib.identity
    lattice = {
        "trivial": (e,),
        "s1": (e, fib.index_of("s1")),
        "s2": (e, fib.index_of("s2")),
        "s3": (e, fib.index_of("s3")),
        "rotations": (e, fib.index_of("t"), fib.index_of("t2")),
        "full": tuple(range(fib.order)),
    }
    stable = {"trivial", "rotations", "full"}
    cases = [
        ("trivial", None),
        ("s1", None),
        ("s2", None),
        ("s3", None),
        ("rotations", None),
        ("full", None),
        ("trivial", "trivial"),
        ("rotations", "full"),
        ("full", "rotations"),
        ("s1", "rotations"),
    ]
    results = {"criterion": [], "joint_search": {}}
    lines = []
    agree = True
    for pinned, beside in cases:
        cols = {(0, 0): lattice[pinned]}
        hi = 1
        if beside is not None:
            cols[(1, 0)] = lattice[beside]
            hi = 2
        sub = fp.product_subgroup(amb, 0, hi, cols, left=b, right=b)
        got = bool(fp.is_tidy(twist, sub, options.depth, options.cap))
        want = pinned in stable
        agree = agree and got == want
        results["criterion"].append(
            {
                "pinned": pinned,
                "beside": beside,
                "tidy": got,
                "predicted": want,
            }
        )
        lines.append(
            f"criterion {pinned}"
            + (f"+{beside}" if beside else "")
            + f": tidy={got}, predicted={want}"
        )
    results["criterion_agrees"] = agree
    base = fp._tails_only(amb, b, b)
    for depth in (4, 6, 8):
        res = fp.common_tidy_iterative([shift, twist], base, depth, options.cap)
        results["joint_search"][str(depth)] = {
            "found": bool(res.found),
            "rounds": res.rounds,
            "exhausted": "search exhausted" in res.report,
        }
        lines.append(
            f"joint search depth {depth}: found={res.found},"
            f" rounds {res.rounds}"
        )
    lines.append(
        "exhaustion at every depth is consistency evidence, not a proof"
    )
    return results, lines


def _example_6_10(options):
    """Two diagonal families whose functional sets equal their supports."""
    options = replace_option(options, word_length=DEFAULT_WORD_LENGTH)
    results = {"configurations": []}
    lines = []
    for filename in ("6.10.yaml", "6.10.alt.yaml"):
        job = build_job(example_config(filename), options, filename)
        backend = job.backend()
        rep, res, _ = _report_invariants(backend, options.word_length)
        # the support is read off the diagonal valuations, independently
        # of the eigenfactor machinery
        support = set()
        n = job.gens[0].dimension
        for i in range(n):
            vec = tuple(
                -pd.padic_valuation(g.matrix[i][i], job.prime)
                for g in job.gens
            )
            support.add(vec)
        nonzero = {v for v in support if any(v)}
        confirmed = set(tuple(p) for p in rep.m_points) == nonzero
        res["support"] = sorted([list(v) for v in support])
        res["confirmed"] = bool(confirmed)
        results["configurations"].append(res)
        shown = sorted(support)
        if confirmed:
            lines.append(
                f"[{filename[:-5]}] M_H = Ψ \\ {{0}}: confirmed for"
                f" Ψ = {shown}"
            )
        else:
            lines.append(f"[{filename[:-5]}] M_H mismatch: {sorted(rep.m_points)}")
        lines.append(
            f"[{filename[:-5]}] records: "
            + ", ".join(f"{r.identifier} t={r.t}" for r in rep.records)
        )
        lines.append(
            f"[{filename[:-5]}] corank free rank {res['corank_free']}"
        )
    return results, lines


def _example_6_11(options):
    """The full root system of a size-three torus block at two primes."""
    options = replace_option(options, word_length=DEFAULT_WORD_LENGTH)
    results = {"primes": {}}
    lines = []
    filename = "6.11.yaml"
    cfg = example_config(filename)
    for prime in (2, 3):
        opts = replace_option(options, prime=prime)
        job = build_job(cfg, opts, filename)
        backend = job.backend()
        rep, res, _ = _report_invariants(backend, options.word_length)
        n = job.extras["size"]
        word = (-1, 0, 1)
        alpha = tr.DiagonalAutomorphism(word)
        roots, _ = tr.root_eigenfactors(n)
        root_scales = {}
        product = 1
        for r in roots:
            value = r.relative_scale(alpha, prime)
            root_scales[f"root({r.root[0] + 1},{r.root[1] + 1})"] = value
            product *= value
        iwahori_scale = prime ** tr.displacement_exponent(tr.iwahori(n), alpha)
        halving = tr.halving_factorization_check(
            tr.iwahori(n),
            [tr.DiagonalAutomorphism(w) for w in ((-1, 0, 1), (0, -1, 1), (-1, 1, 0))],
            2,
            prime,
            fixed_signs={0: 1},
            order=[(1, 1, -1), (1, 1, 1), (1, -1, 1)],
        )
        res["root_scales"] = root_scales
        res["iwahori_scale"] = iwahori_scale
        res["root_scale_product"] = product
        res["scale_factorizes"] = bool(iwahori_scale == product)
        res["halving_ok"] = bool(halving.ok)
        results["primes"][str(prime)] = res
        lines.append(
            f"[p={prime}] factor number {res['factor_number']},"
            f" rank {res['rank']}, corank free rank {res['corank_free']}"
        )
        lines.append(
            f"[p={prime}] block scale {iwahori_scale} = product of root"
            f" scales {product}: {res['scale_factorizes']}"
        )
        lines.append(
            f"[p={prime}] halving factorization at level 2: {halving.ok}"
        )
    return results, lines


def _example_6_17(options):
    """A twisted shift with one expanding and one contracting factor."""
    options = replace_option(options, depth=6, word_length=DEFAULT_WORD_LENGTH)
    filename = "6.17.yaml"
    job = build_job(example_config(filename), options, filename)
    backend = job.backend()
    rep, res, _ = _report_invariants(backend, options.word_length)
    deltas = {}
    lines = []
    for k, rec in enumerate(rep.records, start=1):
        value = Fraction(rec.t) ** rec.rho[0]
        deltas[f"phi{k}"] = str(value)
        lines.append(f"phi{k}(generator) = {value}")
    res["deltas"] = deltas
    lines.append(
        f"factor number {res['factor_number']}, rank {res['rank']},"
        f" corank free rank {res['corank_free']}"
    )
    return res, lines


EXAMPLES = {
    "3.5": _example_3_5,
    "5.7": _example_5_7,
    "6.10": _example_6_10,
    "6.11": _example_6_11,
    "6.17": _example_6_17,
}


def _diff(expected, actual, path, out):
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            here = f"{path}.{key}" if path else str(key)
            if key not in expected:
                out.append(f"{here}: unexpected field")
            elif key not in actual:
                out.append(f"{here}: missing field")
            else:
                _diff(expected[key], actual[key], here, out)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(
                f"{path}: length {len(actual)}, expected {len(expected)}"
            )
            return
        for k, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{path}[{k}]", out)
        return
    if expected != actual:
        out.append(f"{path}: expected {expected!r}, got {actual!r}")


def cmd_example(name, options, golden_path=None):
    if name not in EXAMPLES:
        raise InputError(
            f"unknown example {name!r}; choose from {', '.join(EXAMPLE_NAMES)}"
        )
    results, lines = EXAMPLES[name](options)
    if golden_path is None:
        res = _example_source(f"{name}.golden.json")
        try:
            golden_text = res.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError) as exc:
            raise InputError(f"missing golden file for {name}") from exc
    else:
        try:
            with open(golden_path, "r", encoding="utf-8") as handle:
                golden_text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read golden {golden_path}: {exc}") from exc
    try:
        golden = json.loads(golden_text)
    except json.JSONDecodeError as exc:
        raise InputError(f"golden for {name} is not valid JSON: {exc}") from exc
    mismatches = []
    _diff(golden, results, "", mismatches)
    if mismatches:
        lines.append(f"golden comparison failed for {name}:")
        lines.extend(f"  {m}" for m in mismatches)
    else:
        lines.append(f"golden comparison passed for {name}")
    return results, lines, [], bool(mismatches)


# ---------------------------------------------------------------------------
# entry point


@functools.lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="tidyscale",
        description=(
            "exact scale, tidy subgroup, and eigenfactor computations for"
            " three families of worked examples"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required):
        p.add_argument(
            "--config",
            required=config_required,
            help="path to a backend configuration",
        )
        p.add_argument("--out", help="write the machine-readable report here")
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--cap", type=int, default=DEFAULT_CAP)
        p.add_argument("--word-len", type=int, default=DEFAULT_WORD_LENGTH)
        p.add_argument("--prime", type=int, default=None)

    for name, text in (
        ("scale", "scales and modules of each configured generator"),
        ("tidy", "construct and check a tidy subgroup for the generators"),
        ("eigenfactors", "the relative scale table"),
        ("invariants", "the full invariants report"),
        ("verify", "run the cross-check suite"),
    ):
        p = sub.add_parser(name, help=text)
        common(p, config_required=True)
    p = sub.add_parser("example", help="run a built-in worked configuration")
    p.add_argument("name", help="catalogue id: " + ", ".join(EXAMPLE_NAMES))
    p.add_argument("--golden", help="compare against this golden file instead")
    common(p, config_required=False)
    return parser


class Options:
    def __init__(self, args):
        self.command = args.command
        self.depth = args.depth
        self.cap = args.cap
        self.word_length = args.word_len
        self.prime = args.prime
        if self.depth < 0:
            raise InputError("--depth must be nonnegative")
        if self.cap < 1:
            raise InputError("--cap must be positive")
        if self.word_length < 1:
            raise InputError("--word-len must be positive")


def _options_data(options):
    return {
        "depth": options.depth,
        "cap": options.cap,
        "word_length": options.word_length,
        "prime": options.prime,
    }


def replace_option(options, **kw):
    out = Options.__new__(Options)
    out.__dict__.update(options.__dict__)
    out.__dict__.update(kw)
    return out


def run(args):
    options = Options(args)
    started = time.monotonic()
    ledger = []
    config_echo = None
    if args.command == "example":
        results, lines, ledger, failed = cmd_example(
            args.name, options, args.golden
        )
        command_echo = f"example {args.name}"
    else:
        cfg = load_config(args.config)
        config_echo = cfg
        job = build_job(cfg, options, args.config)
        expect = cfg.get("expect")
        if expect is not None and not isinstance(expect, dict):
            raise InputError(f"{args.config}.expect: expected a mapping")
        if args.command == "scale":
            results, lines, ledger, failed = cmd_scale(job)
        elif args.command == "tidy":
            results, lines, ledger, failed = cmd_tidy(job)
        elif args.command == "eigenfactors":
            results, lines, ledger, failed = cmd_eigenfactors(job)
        elif args.command == "invariants":
            results, lines, ledger, failed = cmd_invariants(job, expect)
        else:
            results, lines, ledger, failed = cmd_verify(job, expect)
        command_echo = args.command
    report = {
        "command": command_echo,
        "config": config_echo,
        "options": _options_data(options),
        "results": results,
        "ledger": ledger,
        "ok": not failed,
    }
    for line in lines:
        print(line)
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(machine_report(report))
    return EXIT_VERIFY if failed else EXIT_OK


def machine_report(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return run(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except TidyscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
