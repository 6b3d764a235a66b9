"""One parameter table per mode.

A mode runner (``serve_run``, ``sample_run``, ``shard_run``) declares each
of its parameters once, as a :class:`Param` row of its table; its defaults
and checks (:func:`resolve`), its command's CLI options and its golden
family's parameters derive from the table.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Optional


@dataclass(frozen=True)
class Param:
    """One runner keyword and its CLI option (``-`` for ``_``).

    Its domain is one of ``choices``, or a ``kind`` value at least ``low``
    (above it when ``above``; NaN is neither).  A tuple default makes it a
    sequence of such values, comma-separated on the CLI; a bool default
    makes its option a flag.  ``help`` shows the default as
    ``%(default)s``; a ``cli=False`` row has no option.
    """

    name: str
    default: object = None
    kind: type = int
    low: object = None
    above: bool = False
    choices: Optional[tuple] = None
    help: Optional[str] = None
    cli: bool = True

    @property
    def flag(self) -> str:
        return self.name.replace("_", "-")

    @property
    def many(self) -> bool:
        return isinstance(self.default, tuple)

    def domain(self) -> str:
        if self.choices is not None:
            return f"one of {list(self.choices)}"
        return (f"{'comma-separated ' * self.many}{self.kind.__name__}"
                f"{'s' * self.many} {'>' if self.above else '>='} {self.low}")

    def check(self, value):
        """``value`` as its ``kind``; ``ValueError`` naming the parameter
        as the CLI spells it (``batch-max``) when outside its domain."""
        items = tuple(value) if self.many else (value,)
        if not (value in self.choices if self.choices is not None
                else self.low is None or items and all(
                    v > self.low or (v == self.low and not self.above)
                    for v in items)):
            raise ValueError(f"{self.flag} must be {self.domain()}, "
                             f"got {value!r}")
        if self.low is None:
            return bool(value) if isinstance(self.default, bool) else value
        items = tuple(map(self.kind, items))
        return items if self.many else items[0]

    def parse(self, text: str):
        """An argparse ``type=``: CLI text to a value in the domain."""
        try:
            return self.check(tuple(map(self.kind, text.split(",")))
                              if self.many else self.kind(text))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {self.domain()}, got {text!r}") from None

    def option(self, default=None):
        """What adds this row's option to a parser.  With no ``default`` (a
        mode's command) it parses to None, unset, unless given, and its
        help shows the row's default."""
        shown = ",".join(map(str, self.default)) if self.many else self.default
        help = (self.help % {"default": shown}
                if default is None and self.help else self.help)
        kwargs = (dict(action="store_true") if isinstance(self.default, bool)
                  else dict(choices=self.choices,
                            type=None if self.choices else self.parse))
        return lambda parser: parser.add_argument(
            f"--{self.flag}", default=default, help=help, **kwargs)


def table(*rows: Param) -> dict[str, Param]:
    """A mode's parameters by keyword, in CLI order."""
    return {row.name: row for row in rows}


def resolve(params: Mapping[str, Param], values: Mapping[str, object],
            config: Mapping[str, object] = {}) -> SimpleNamespace:
    """Every parameter of ``params``, checked: its value in ``values`` (a
    call's keywords), else in the named ``config``, else its default, each
    taken where the one before is unset (None).  A keyword ``params``
    lacks raises ``TypeError``; a value outside its domain, ``ValueError``."""
    unknown = sorted(set(values) - set(params))
    if unknown:
        raise TypeError(f"unexpected parameter(s) {unknown}")
    resolved = {}
    for name, row in params.items():
        value = values.get(name)
        value = config.get(name) if value is None else value
        value = row.default if value is None else value
        resolved[name] = None if value is None else row.check(value)
    return SimpleNamespace(**resolved)


# -- the rows several modes share ---------------------------------------------

SCALE = Param("scale", "test", choices=("test", "profile", "scaling"),
              help="default: %(default)s")
SEED = Param("seed", 0, low=0)
EPOCHS = Param("epochs", 2, low=1, help="default: %(default)s")
#: a synthetic citation graph needs a node for each of its 8 classes
NODES = Param("nodes", None, low=8,
              help="nodes of a synthetic ARGA citation graph")
