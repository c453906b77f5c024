"""Decomposition trees for both transform recursions.

Each tree node is a signal from the taxonomy at some periodization.
The tree is derived from the algorithm's step table (classical.STEPS or
improved.STEPS), the same table that runs the transform, so it cannot
drift from the code.  A node splits when its N exceeds its step's leaf
size: its *children* are the step's children, the signals the recursion
continues into, and its *intermediates* are the step's via signals, the
transient signals formed along the way (parity-split halves before
relabelling, secant-converted buffers) that the step consumes itself.
Above the tables, a complex root splits into two real ones and a real
root into a cosine and a sine one (N >= 4).

Storage audit: for every expanded node the children's stored-cell
totals (time and harmonic) are compared with the mother's.  The
improved recursion conserves both exactly at every node.  The classical
recursion conserves everywhere except the odd-harmonic cosine step,
whose secant conversion passes through the wider t1 signals: there the
children hold one extra time cell and one extra harmonic cell.

Node labels are assigned breadth-first: within each level, the outputs
of the previous level's nodes are numbered first, in order, then the
intermediates, in order, so s2,1 is always the first signal the first
decomposition recurses into.
"""

from dataclasses import dataclass, field

from . import ALGORITHMS, check_names, taxonomy


@dataclass
class TreeNode:
    """One signal in a decomposition tree."""

    sig_type: str
    N: int
    role: str = "output"  # "output" (recursed into) or "intermediate"
    children: list = field(default_factory=list)
    intermediates: list = field(default_factory=list)
    level: int = 0
    pos: int = 0

    @property
    def ln(self):
        return taxonomy.ln(self.sig_type, self.N)

    @property
    def lk(self):
        return taxonomy.lk(self.sig_type, self.N)

    @property
    def label(self):
        return f"s{self.level},{self.pos}"

    @property
    def is_leaf(self):
        return not self.children


# the drivers around the step tables: a complex transform runs one real
# transform per component, a real one folds into a cosine and a sine part
_DRIVERS = {"cx_tt": ("re_tt", "re_tt"), "re_tt": ("dc_tt", "ds_tt")}


def _expand(node, steps):
    """Attach children and intermediates, read from the step table."""
    t, N = node.sig_type, node.N
    if t in _DRIVERS:
        if N >= 4:
            node.children = [TreeNode(c, N) for c in _DRIVERS[t]]
    elif N > steps[t].leaf:
        step = steps[t]
        node.children = [TreeNode(c, N >> h) for c, h in step.children]
        node.intermediates = [TreeNode(v, N >> h, "intermediate") for v, h in step.via]
    for child in node.children:
        _expand(child, steps)


def build_tree(algorithm, transform, N):
    """Decomposition tree for one transform at periodization N."""
    check_names(algorithm, transform)
    taxonomy.check_type_n(taxonomy.ROOT_TYPE[transform], N)
    root = TreeNode(taxonomy.ROOT_TYPE[transform], N, "output")
    _expand(root, ALGORITHMS[algorithm].STEPS)
    _assign_labels(root)
    return root


def _assign_labels(root):
    root.level, root.pos = 1, 1
    frontier = [root]
    level = 2
    while frontier:
        outputs = [c for node in frontier for c in node.children]
        intermediates = [m for node in frontier for m in node.intermediates]
        for pos, node in enumerate(outputs + intermediates, start=1):
            node.level, node.pos = level, pos
        frontier = outputs
        level += 1


def iter_nodes(root):
    """All output nodes, depth first, mothers before children."""
    yield root
    for child in root.children:
        yield from iter_nodes(child)


@dataclass(frozen=True)
class StorageCheck:
    node_label: str
    sig_type: str
    N: int
    mother: tuple
    children_sum: tuple
    delta: tuple


def storage_checks(root):
    """Mother-versus-children stored-cell comparison for every expansion."""
    checks = []
    for node in iter_nodes(root):
        if node.is_leaf:
            continue
        sum_ln = sum(c.ln for c in node.children)
        sum_lk = sum(c.lk for c in node.children)
        checks.append(StorageCheck(node.label, node.sig_type, node.N,
                                   (node.ln, node.lk), (sum_ln, sum_lk),
                                   (sum_ln - node.ln, sum_lk - node.lk)))
    return checks


def allows_t1_growth(algorithm):
    """Whether the algorithm's step table forms any wider t1 signal on the way.

    The storage audit then expects the odd-harmonic cosine expansions to
    grow by one cell each way, as conservation_violations describes.
    """
    steps = ALGORITHMS[algorithm].STEPS
    return any("_t1" in t for step in steps.values() for t, _ in step.via)


def conservation_violations(root, allow_t1_growth):
    """Checks whose delta is unexpected.

    With allow_t1_growth (the classical recursion), odd-harmonic cosine
    expansions are expected to grow by exactly one cell each way; every
    other expansion must conserve both totals.
    """
    bad = []
    for check in storage_checks(root):
        expected = (0, 0)
        if allow_t1_growth and check.sig_type == "dc_to":
            expected = (1, 1)
        if check.delta != expected:
            bad.append(check)
    return bad


def render_tree(root, algorithm, transform):
    """Plain-text dump of the tree with storage sizes."""
    lines = [f"{algorithm} {transform} N={root.N}"]

    def walk(node, prefix, is_last):
        branch = "" if node is root else ("`- " if is_last else "|- ")
        star = " *" if node.role == "intermediate" else ""
        lines.append(f"{prefix}{branch}{node.label}{star} {node.sig_type} "
                     f"N={node.N} ln={node.ln} lk={node.lk}")
        if node is root:
            child_prefix = prefix
        else:
            child_prefix = prefix + ("   " if is_last else "|  ")
        items = node.children + node.intermediates
        for i, item in enumerate(items):
            walk(item, child_prefix, i == len(items) - 1)

    walk(root, "", True)
    lines.append("* = intermediate signal, consumed within its mother's step")
    return "\n".join(lines)
