"""In-memory span tracer installed around calls into a package's modules.

The tracer replaces module attributes at the point where callers look them
up (``cinar.estimate.thinning_convolution_table``, ``cinar.simstudy.
cml_estimate``, a class's ``pmf_table`` ...), so nothing in the traced
package changes.  Each call records one span: name, start, end, parent span
and operation id, plus optional counts computed from the call's arguments and
result.  Spans stay in memory until the caller writes them out.

A wrapped name that no longer exists (a refactor removed or renamed it) is
reported in ``Tracer.absent`` instead of raising, so the benchmark keeps
running on code it was not written against.
"""

import functools
import importlib
import sys
import time

# span fields: [name, start, end, parent index or -1, op id, counts or None]
NAME, START, END, PARENT, OP, COUNTS = range(6)


class _ModuleProxy:
    """Stands in for a foreign module inside one package module.

    Overridden attributes come from ``overrides``; everything else is read
    from the real module, so a wrapper never leaks into other packages.
    """

    def __init__(self, module, overrides):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


class Tracer:
    """Collects spans from wrapped callables; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.op = None
        self.absent = []
        self._clock = clock
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call.

        ``count(args, kwargs, result)`` returns a dict of counts stored on
        the span; it runs after the span's end time is taken.  A count that
        fails is stored as ``{"count_errors": 1}`` and the call goes on.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                try:
                    span[COUNTS] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError,
                        TypeError, ValueError):
                    # the call's signature or result changed under us
                    span[COUNTS] = {"count_errors": 1}
            return result

        return wrapper

    def install(self, specs, package):
        """Wrap each ``(span name, module, attribute path, count)`` spec.

        The attribute path is ``func`` or ``Class.method``.  A module-level
        function is replaced in every loaded module of ``package`` that holds
        it, which is where its callers look it up.  A function of a module
        outside ``package`` (``scipy.optimize.minimize``) is replaced only
        behind a proxy for that module in the package modules that import it.
        Specs that do not resolve, or that no package module references, are
        listed in ``self.absent``.
        """
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for name, module_name, path, count in specs:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = self.wrap(name, original, count)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            foreign = owner not in modules
            patched = False
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                        patched = True
                    elif foreign and value is owner:
                        self._set(mod, key, _ModuleProxy(owner, {attr: wrapper}))
                        patched = True
                    elif (foreign and isinstance(value, _ModuleProxy)
                          and value._module is owner):
                        value._overrides[attr] = wrapper
                        patched = True
            if not patched:
                self.absent.append(label)

    def _set(self, owner, key, value):
        # a class attribute inherited from a base is restored by deleting it
        own = not isinstance(owner, type) or key in vars(owner)
        self._restore.append((owner, key, getattr(owner, key), own))
        setattr(owner, key, value)

    def uninstall(self):
        """Put every replaced attribute back, newest first."""
        while self._restore:
            owner, key, original, own = self._restore.pop()
            if own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap and
    the time they cover is the sum of their durations.
    """
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def within(spans, index, name):
    """Whether span ``index`` has a proper ancestor called ``name``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
