"""The runs of ``core.line_system`` expanded into the ordered list of
``(mask, pairs)`` entries that the oracle ``all_lines`` returns, so
every line builder is compared with the oracle entry by entry."""


def line_entries(runs):
    """One ``(mask, pairs)`` entry per line, in run order, after checking
    the shape of each run: bare partners above a in ascending order, and
    a linked line's members ascending and starting at a."""
    entries = []
    for a, bare, line in runs:
        assert all(a < b for b in bare) and bare == sorted(bare)
        entries += [(1 << a | 1 << b, [(a, b)]) for b in bare]
        if line is not None:
            members, pairs = line
            assert members[0] == a and list(members) == sorted(set(members))
            entries.append((sum(1 << p for p in members), pairs))
    return entries
