"""Spans around the public entry points of every dfields layer.

The tracer wraps functions from outside the package: a module-level
function is rebound in every ``dfields.*`` namespace that holds it (``ucd``
and ``cli`` import names from ``poly`` and the others directly), and a
method or property is replaced on its class.  ``uninstall`` puts every
original binding back.  Spans stay in memory as
``[name, start, end, parent, item]`` and are written out by the caller.
"""

import functools
import json
import sys
import time

# layer -> public entry points; "Class.attr" names a method or property
TARGETS = {
    "poly": (
        "groebner_basis_of", "Ideal.groebner_basis", "normal_form", "Ideal.contains",
        "Ideal.elimination_ideal", "Ideal.krull_dimension", "jacobian_rank_at",
        "decide_irreducibility", "factor_univariate",
    ),
    "linalg": ("rref", "nullspace", "rank", "inverse", "mat_mul", "mat_vec"),
    "algebra": (
        "from_presentation", "check_algebra", "local_decompose",
        "FiniteDimAlgebra.components",
    ),
    "dring": ("DOperator.apply", "tensor_mul", "make_doperator", "product_rule_check"),
    "prolongation": ("prolong", "pi_hat"),
    "dvariety": ("make_dvariety", "rational_sharp_points"),
    "ucd": ("ucd_instance", "check_instance"),
    "cli": ("parse", "run"),
}

# a method reported under the name of the operation it implements
ALIASES = {"poly.Ideal.krull_dimension": "poly.krull_dimension"}

NAMES = tuple(
    ALIASES.get(f"{layer}.{fn}", f"{layer}.{fn}") for layer, fns in TARGETS.items() for fn in fns
)

# the per-layer metrics a traced run reports
_CALLS_AND_SELF = (
    "poly.groebner_basis_of", "poly.normal_form",
    "linalg.rref", "linalg.nullspace", "linalg.rank", "linalg.inverse",
    "linalg.mat_mul", "linalg.mat_vec",
    "dring.DOperator.apply", "dring.tensor_mul", "dring.make_doperator",
    "dring.product_rule_check", "prolongation.prolong", "prolongation.pi_hat",
    "ucd.ucd_instance", "ucd.check_instance",
)
_SELF_ONLY = (
    "poly.Ideal.elimination_ideal", "poly.krull_dimension", "poly.jacobian_rank_at",
    "poly.decide_irreducibility", "poly.factor_univariate",
    "algebra.from_presentation", "algebra.check_algebra", "algebra.local_decompose",
    "algebra.FiniteDimAlgebra.components", "dvariety.make_dvariety",
    "dvariety.rational_sharp_points", "cli.parse", "cli.run",
)
REPORTED = (
    "poly.groebner_basis_of.basis_len_max", "poly.groebner_basis_of.deg_max",
    "poly.groebner_basis_of.coeff_bits_max", "poly.Ideal.groebner_basis.cache_hit_share",
    "poly.Ideal.contains.calls", "poly.Ideal.contains.true_share", "poly.budget_errors",
) + tuple(f"{n}.{s}" for n in _CALLS_AND_SELF for s in ("calls", "self_s")) + tuple(
    f"{n}.self_s" for n in _SELF_ONLY
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self.budget_errors = 0
        self.contains_true = 0
        self.basis_stats = []  # (length, max degree, max coefficient bits)
        self._stack = []
        self._seen_errors = set()
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self):
        budget_error = sys.modules["dfields.poly"].BudgetExceededError
        for layer, fns in TARGETS.items():
            module = sys.modules[f"dfields.{layer}"]
            for fn in fns:
                name = ALIASES.get(f"{layer}.{fn}", f"{layer}.{fn}")
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        wrapped = property(self._wrap(name, original.fget, budget_error))
                    else:
                        wrapped = self._wrap(name, original, budget_error)
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, wrapped)
                    continue
                original = getattr(module, fn)
                wrapped = self._wrap(name, original, budget_error)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "dfields" and not mod_name.startswith("dfields."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)
        return self

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def _wrap(self, name, fn, budget_error):
        spans, stack = self.spans, self._stack
        observe = {
            "poly.groebner_basis_of": self._observe_basis,
            "poly.Ideal.contains": self._observe_contains,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.budget_errors += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_basis(self, basis):
        degree = bits = 0
        for p in basis:
            degree = max(degree, p.total_degree())
            for c in p.terms.values():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.basis_stats.append((len(basis), degree, bits))

    def _observe_contains(self, result):
        self.contains_true += bool(result)

    # -- results ---------------------------------------------------------------

    def counts(self):
        """Calls per entry point: the figure that must repeat exactly."""
        out = dict.fromkeys(NAMES, 0)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def metrics(self):
        calls = self.counts()
        self_s = dict.fromkeys(NAMES, 0.0)
        child = [0.0] * len(self.spans)
        gb_children = set()
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
                if span[0] == "poly.groebner_basis_of":
                    gb_children.add(span[3])
        hits = 0
        for idx, span in enumerate(self.spans):
            self_s[span[0]] += span[2] - span[1] - child[idx]
            if span[0] == "poly.Ideal.groebner_basis" and idx not in gb_children:
                hits += 1
        out = {}
        for name in NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        stats = self.basis_stats or [(0, 0, 0)]
        out["poly.groebner_basis_of.basis_len_max"] = (max(s[0] for s in stats), "count")
        out["poly.groebner_basis_of.deg_max"] = (max(s[1] for s in stats), "count")
        out["poly.groebner_basis_of.coeff_bits_max"] = (max(s[2] for s in stats), "bits")
        lookups = calls["poly.Ideal.groebner_basis"]
        out["poly.Ideal.groebner_basis.cache_hit_share"] = (hits / lookups if lookups else 0.0, "share")
        tests = calls["poly.Ideal.contains"]
        out["poly.Ideal.contains.true_share"] = (self.contains_true / tests if tests else 0.0, "share")
        out["poly.budget_errors"] = (self.budget_errors, "count")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
