"""Spans around the calls into sliceobs layer functions.

The layers are the modules of the package; a traced function is named
``layer.function`` (``linalg.det_gf``).  Modules import each other's
functions with ``from .x import f``, so one function object is bound
under several module attributes (``sliceobs.linalg.det_gf`` and
``sliceobs.twisted.det_gf``; ``sliceobs.blanchfield.linking_form`` and
``sliceobs.report.linking_form``).  ``Tracer.install`` replaces every
module-level binding of each traced function anywhere in the package with
one wrapper, so a call is timed whichever name it goes through.  Calls
made through a reference taken before installation (a default argument,
a closure, a name imported into a module outside the package) are not
seen; the benchmark therefore calls the program through module
attributes.

Only the traced functions get spans.  Time spent in the functions they
call that are not traced (arithmetic helpers, private functions) counts
as their own self time.
"""

import sys
import time

PACKAGE = "sliceobs"

# span fields, in order
SPAN_FIELDS = ("id", "parent", "name", "op", "start", "end", "arg")
_ID, _PARENT, _NAME, _OP, _START, _END, _ARG = range(len(SPAN_FIELDS))


def resolve(names, modules):
    """{id(fn): (name, fn)} for each ``layer.function`` name that exists."""
    found = {}
    for name in names:
        layer, attr = name.split(".")
        fn = getattr(modules.get(f"{PACKAGE}.{layer}"), attr, None)
        if callable(fn):
            found[id(fn)] = (name, fn)
    return found


class Tracer:
    """Records one span per call into a traced function.

    A span is ``[id, parent id or -1, "layer.function", op, start, end,
    first argument if it is an int else None]``; ``op`` is whatever the
    caller last stored in ``Tracer.op`` and ties the spans of one
    operation together.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            arg = args[0] if args and type(args[0]) is int else None
            span = [len(spans), stack[-1][_ID] if stack else -1, name,
                    self.op, 0.0, 0.0, arg]
            spans.append(span)
            stack.append(span)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, names):
        """Rebind every module-level alias in the package of each function
        ``layer.function`` in ``names`` to its wrapper.  Names that do not
        exist are skipped.  Returns the number of bindings replaced."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = dict(sys.modules)
        targets = resolve(names, modules)
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in targets.items()}
        for modname, mod in modules.items():
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][1] is value:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, value))
        return len(self._undo)

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def function_stats(spans):
    """Per function name: ``calls``, ``total_s`` (time inside calls that
    are not nested in another call of the same function), ``self_s``
    (time inside calls minus the time of their direct child spans) and
    ``args`` (the set of distinct int first arguments)."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp[_PARENT] >= 0:
            child_time[sp[_PARENT]] += sp[_END] - sp[_START]
    stats = {}
    for sp in spans:
        st = stats.get(sp[_NAME])
        if st is None:
            st = stats[sp[_NAME]] = {"calls": 0, "total_s": 0.0,
                                     "self_s": 0.0, "args": set()}
        dur = sp[_END] - sp[_START]
        st["calls"] += 1
        st["self_s"] += dur - child_time[sp[_ID]]
        if sp[_ARG] is not None:
            st["args"].add(sp[_ARG])
        parent = sp[_PARENT]
        while parent >= 0 and spans[parent][_NAME] != sp[_NAME]:
            parent = spans[parent][_PARENT]
        if parent < 0:
            st["total_s"] += dur
    return stats


def merge_stats(parts):
    """Sum per-function figures of several sessions."""
    out = {}
    for stats in parts:
        for name, st in stats.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "args": set()})
            acc["calls"] += st["calls"]
            acc["total_s"] += st["total_s"]
            acc["self_s"] += st["self_s"]
            acc["args"] |= st["args"]
    return out
