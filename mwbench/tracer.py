"""In-memory span tracer that wraps mwlattice's public functions at run time.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
target function in every loaded ``mwlattice`` module namespace (and each
target method on its class) with a timing wrapper, and
:meth:`Tracer.uninstall` puts the originals back.  Calls that one module
makes into another through a name it imported are therefore traced too.

For every span name the tracer keeps the call count, the inclusive busy
time (counted once per outermost activation, so recursion is not double
counted) and the time covered by child spans; self time is busy time minus
child time.  Spans are aggregated in memory and read out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute path) of every traced public function.
TARGETS = (
    ("lattice", "short_vectors"),
    ("lattice", "vector_norms"),
    ("lattice", "ldl"),
    ("lattice", "dual_gram"),
    ("lattice", "orthogonal_complement"),
    ("lattice", "size_reduce"),
    ("matrices", "inverse"),
    ("matrices", "det"),
    ("matrices", "left_kernel_basis"),
    ("matrices", "invariant_factors"),
    ("mw", "mwl"),
    ("mw", "identify_dn_plus"),
    ("mw", "mw_group"),
    ("mw", "equivalence_check"),
    ("scenarios", "validate_scenario"),
    ("fibers", "dual_graph"),
    ("fibers", "fiber_multiplicities"),
    ("fibers", "classify_shape"),
    ("oracles", "brute_force_short_vectors"),
    ("boxenum", "box_short_vectors"),
    ("pencil", "discriminant_in_x"),
    ("pencil", "branch_decomposition"),
    ("pencil", "contact_order_at_origin"),
    ("pencil", "pencil_to_double_cover"),
    ("pencil", "double_cover_branch_germ"),
    ("ade", "classify_ade_germ"),
    ("poly", "SparsePoly.__mul__"),
    ("poly", "SparsePoly.substitute"),
    ("poly", "SparsePoly.__pow__"),
)

SPAN_NAMES = tuple("%s.%s" % target for target in TARGETS)


class Tracer:
    """Aggregated spans plus per-span result hooks for work counters."""

    def __init__(self, hooks=None):
        # name -> [calls, busy_s, child_s, active depth]
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        self.hooks = dict(hooks or {})
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        entry = self.stats[name]
        children = self._children
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry[3] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = children.pop()
                entry[3] -= 1
                entry[0] += 1
                entry[2] += child
                if entry[3] == 0:
                    entry[1] += elapsed
                else:  # recursive activation: busy time counts once, outermost
                    entry[2] -= elapsed
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "mwlattice" or key.startswith("mwlattice."))
        ]
        for module_name, path in TARGETS:
            name = "%s.%s" % (module_name, path)
            owner = sys.modules["mwlattice." + module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def spans(self, per: int = 1) -> dict[str, tuple[float, float, float]]:
        """name -> (calls, busy_s, self_s), each divided by ``per``."""
        out = {}
        for name, (calls, busy, child, _) in self.stats.items():
            self_s = busy - child if calls else 0.0
            out[name] = (calls / per, busy / per, max(self_s, 0.0) / per)
        return out
