"""Exact counting of circular permutations avoiding a glued pattern.

Three independent routes to the same numbers: a brute-force oracle over
all words (``vincular.oracle``), bottom-up recurrence tables
(``vincular.tables``), and closed-form generating series truncated over
exact rationals (``vincular.genfun``, on ``vincular.powerseries``).
``vincular.perms`` holds the words and patterns they share, the
``vincular.checks`` module compares the routes, and ``vincular.cli`` is
the ``vincular`` command.  The package itself re-exports nothing: import
the submodule that holds a name.
"""
