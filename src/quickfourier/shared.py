"""Level scheduler, real-field drivers and public entry points of both transforms.

Each fast transform is declared as a step table: a dict that maps a
signal type (dc_tt, dc_ot, ds_to, ...) to a Step.  A Step gives

  * leaf: the largest periodization N that its base case handles;
  * children: what a split makes of the signal, as (child type, number
    of halvings of N) pairs;
  * via: the transient signals the split forms on the way, which its
    own kernels consume, as (type, halvings of N) pairs;
  * base(x, N, table, counter, out): writes the spectrum of a leaf
    into out; None declares a copy leaf, whose one stored sample is its
    one stored harmonic;
  * forward(x, N, table, counter, outs): writes the children, in the
    order of children, into the buffers outs holds;
  * backward(N, spectra, counter, out): writes the spectrum, from the
    children's spectra in the order of children, into out.

Every entry is a literal Step: the table states each split's children
and via itself.  The step functions of the time- and harmonic-parity
splits, one per signal type, and the two-point leaf live in
elaborations; this module holds only the scheduler, the drivers and the
entry points.

Step functions allocate nothing and return nothing: run_levels owns
every buffer a recursion uses.  An input buffer holds ln(type, N) rows
and a spectrum lk(type, N) rows, the paper's storage of the signal, by
the columns of its group.

The table is the one description of each recursion: run_levels runs
it, and tree.build_tree reads its children and via fields to draw the
decomposition tree.

run_levels runs a table level by level rather than depth first.  It
groups pending subproblems by (type, N), gives each subproblem a column
slot of its group's one input buffer and runs one base or forward call
on the whole group, in decreasing N and, within one N, in table order.
Every group but the root gets its input buffer when its first producer
runs, and each forward step writes its children straight into their
slots.  A time split copies both children out of their mother, so no
child pins her past her own turn.  Every table lists a type before the
types that it produces at the same N, so a group is complete when its
turn comes.  A leaf writes its spectrum into a buffer of its own, but
a copy leaf, declared by its base of None, hands its input buffer on as
its spectrum below the root; at the root it copies its input, which may
be the caller's array.  The backward pass then runs in reverse order,
hands each child spectrum back as a column slice, and writes each
group's spectrum into a buffer of its own, the root's into dest when
one is given.  A slot or slice
that spans its whole buffer is handed on whole.  Every kernel works
column by column and charges one operation per value it writes, so the
slots change neither a bit of a result nor a count; they only replace
thousands of small calls by a few dozen wide ones.

Conversions run in place, inside the split that forms the converted
signal: improved dc_ot and ds_ot scale their odd-odd child in its own
slot, and classical dc_to scales its input, a buffer run_levels owns,
as dc_to is never a root.  No step of a root type writes into its
input, and the caller's array, which dct0 and dst0 hand over as the
root, reaches the recursion read-only.

The leaf sizes and children fix the whole schedule of a (table, type,
N) root before any kernel runs: the groups in forward order, each
child's column slot in units of the root's columns, the shape of each
input buffer and spectrum, the backward order, and the last reader of
each spectrum.  It is derived once, on first use, and cached; a call
replays it with list indices.  A table that lists a type after one that
produces it at the same N raises RuntimeError.

Buffers are handed over, not lent: run_levels takes its root buffer out
of a one-element list, drops each buffer once its forward step has
consumed it and each spectrum once its last reader has run, and no view
it hands on pins a spent buffer.  A plain argument would not do: the
caller may hold it until the call returns, as CPython before 3.11
always does and any wrapper that forwards *args does.

A real DFT folds into one even-symmetric (cosine) and one odd-symmetric
(sine) problem; a complex DFT runs one real DFT per component and then
recombines mirrored harmonics.  These reductions and the public
cdft/rdft/dct0/dst0 around them are the same for the classical and the
improved recursion, so one implementation serves both, parameterized by
the step table.  One driver, _real_spectra, forms both folds and runs
both recursions; half_spectrum and complex_spectrum only place the two
spectra it returns.  At N = 2 the sine problem is empty, below the
smallest N a sine signal admits, and no recursion runs for it.

Each public call runs its columns in blocks, each through that whole
path: the folds, run_levels and cdft's recombine.  A block holds about
BLOCK_BYTES of real working buffer, so that its levels work in a core's
cache; a call whose blocks would hold less than MIN_BLOCK_ROW_BYTES of
each row, as at large N, runs as one block.  Columns are independent
signals, so blocks change no bit of any result, count or constant
footprint.  For its own length, a call also sets NumPy's ufunc buffer to
UFUNC_BUFSIZE elements and then restores the caller's size, so the
buffers NumPy's iterator takes for operands that are not whole
contiguous blocks fit a core's L1d; the size changes no bit either.  A
call whose columns fit one block, every 1-D call among them, runs as
one: its output is allocated only once its spectra exist, and its peak
is that output beside the two real half spectra, 2.0 times its input's
bytes.  Beside a small input, Python objects and one-column temporaries
weigh more: at one float64 column, improved rdft peaks at 2.11, 2.41
and 3.57 times its input at N = 4096, 1024 and 256 (classical 2.36,
2.68 and 3.88) and improved cdft at 2.02, 2.19 and 2.71 (classical 2.05,
2.45 and 3.01); at 16 columns of N = 64, both transforms peak at
2.07-2.20 times (classical 2.37-2.56).  A wider call allocates its one
output before its first block, its rows taxonomy's stored harmonics of
the transform's root, and every block writes its spectra straight into
the output's columns, so the call peaks at the output plus one block's
working set, 1.13-1.16 times an 8 MiB input's bytes.  A call of no
columns returns that output empty, with nothing counted.  These peaks
are those of a plain call; a replayed call allocates its output and
little else (see below).

The schedule a block runs never changes for a given key: the driver,
the step table, the root type and N, the block's shape, whether it is a
whole call, and the table's dtype and pipeline.  So every block of a
wide call, and every one-block call of at most BLOCK_BYTES, replays a
tape: the list of every ufunc call and copy of the block's plain run,
the folds, both recursions and cdft's recombine or rdft's packing,
bound in advance to views of an arena.  The arena packs the buffers of
the plain run by the interval of ops that use each, so that no op's
operands share bytes that they did not share there; the same ufuncs
then run on the same values in the same order, and outputs, counts and
constant footprints are bitwise a plain run's.  A thread's first block
of a key runs plain and only marks it, so one-shot calls pay nothing;
its second records the tape and later ones replay it, so a wide call of
equal blocks replays from its third block on.  Recording keeps each
operand as a few ints, (buffer serial, byte offset, shape, strides),
and knows the run's buffers by weak reference only, so it holds none of
them: a recording whose tape is not kept peaks 1.15-1.22 times a plain
call at one column of N = 4096.  An operand that views the block or
the output is kept as a basic index: every replay reads the block where
it lies, through the view or copy that the driver makes, and a wide
call's blocks write the output's columns through views of their own.
A one-block call has no output before its run, so its tape's output is
a buffer of the arena, which a replay copies out.  Each thread keeps
one arena of at most TAPE_HELD_BYTES, which every tape that fits binds
to in the call that records it, once the run's own buffers are gone,
and keeps between calls; when the arena grows, every tape bound to it
is bound again at once, so that no replay allocates views.  A larger
tape is not kept, and its key's later blocks run plain: only one-block
calls of 0.5-1 MiB make one, and binding an arena for each such call
had it peak at 1.5-1.6 times a plain call.  So a replayed call
allocates its output and the views of its block and output: an 8 MiB
wide call peaks at 1.003-1.005 times its input's bytes, beside the
1.3 MiB arena its thread keeps, and the call that records and binds at
1.18 times.  At one column of N = 4096 that call peaks at 2.5-3.1
times a plain one: the arena it grows, 64-128 KiB, is alone more than a
plain call's peak, and the views of some 250 ops weigh about as much.  A
replay adds the recorded adds and muls to the caller's counter and the
recorded lookups to the caller's table log; a tape holds no table,
counter or caller array.  Tapes live in a per-thread cache of at most
TAPE_KEYS keys, the least recently used evicted first, so no state is
shared between threads.  A block replays only when it runs through this
module's own driver, run_levels and numpy, with a plain TrigTable and a
step table whose items are those entry_points bound, and its tape is
not busy: a tracer or a test that wraps or patches one of them sees
every call.  The counted helpers and counting.place, which every bare
write of the step functions and drivers goes through, feed the
recorder.

Input contract of the public transforms: one signal as a 1-D array, or
independent signals as the columns of a 2-D array, of a numeric dtype
(bool, integer, float or complex).  cdft works in complex64 for
complex64 input, complex128 otherwise; rdft/dct0/dst0 take real samples
and work in float32 for float32 input, float64 otherwise.
taxonomy.ROOT_TYPE, stored_length and periodization state the input
lengths and their periodization N.  Any other number of dimensions, any
other dtype (object, strings, ...), complex samples for a real
transform, or a length that periodization rejects raises ValueError.

Buffer convention: every internal buffer is 2-D and real, rows by
columns, one signal per column, and cell n of a column holds s(n).
_in_blocks turns a 1-D signal into a free (n, 1) view and squeezes the
result back.  cdft reads its cols complex columns as their float view,
2 cols real columns with the real and imaginary part of each column side
by side.  run_levels writes each spectrum into the output through dest:
cdft's cosine spectra into its first N/2+1 rows, where the recombine then
runs in place, rdft's into out.real and out.imag, dct0's and dst0's into
out itself.
"""

import sys
import threading
import weakref
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import islice

import numpy as np

from .counting import OpCounter, TrigTable, cadd, csub, place
from .taxonomy import ROOT_TYPE, lk, ln, periodization, sto_k

# one entry of a step table; the module docstring gives the fields
Step = namedtuple("Step", "leaf children via base forward backward")


def run_levels(steps, sig_type, N, root, table, counter, dest=None):
    """Spectrum of a sig_type buffer at periodization N, run level by level.

    root is a one-element list holding the buffer, which run_levels takes
    out of it: the module docstring says why.  No step of a root type
    writes into its input, so root is never written.  The spectrum is
    written into dest and dest returned when dest is given.
    """
    forward, backward = _schedule(tuple(steps.items()), sig_type, N)
    inputs = [None] * len(forward)  # group -> the input buffer it owns
    inputs[0] = root.pop()
    cols, dtype = inputs[0].shape[1], inputs[0].dtype
    spectra = [None] * len(forward)
    for g, (step, n, slots, (rows, width)) in enumerate(forward):
        x = inputs[g]
        inputs[g] = None
        if slots is None:
            if rows is None:  # a copy leaf: its input is its spectrum
                spectra[g] = x
            else:
                spectra[g] = np.empty((rows, width * cols), dtype) if g or dest is None else dest
                if step.base is None:  # a root copy leaf: its input may be the caller's array
                    place(counter, x, spectra[g])
                else:
                    step.base(x, n, table, counter, spectra[g])
            x = None
            continue
        outs = []
        for b, c0, c1, buf_rows, buf_width in slots:
            buf = inputs[b]
            if buf is None:  # the buffer's first producer runs
                buf = inputs[b] = np.empty((buf_rows, buf_width * cols), dtype)
            outs.append(buf if c0 is None else buf[:, c0 * cols:c1 * cols])
        step.forward(x, n, table, counter, outs)
        x = buf = outs = None
    for g, step, n, slots, last_read, (rows, width) in backward:
        views = [spectra[k] if c0 is None else spectra[k][:, c0 * cols:c1 * cols]
                 for k, c0, c1 in slots]
        for k in last_read:
            spectra[k] = None
        spectra[g] = np.empty((rows, width * cols), dtype) if g or dest is None else dest
        step.backward(n, views, counter, spectra[g])
    return spectra[0]


@lru_cache(maxsize=256)
def _schedule(items, sig_type, N):
    """Level schedule of a step table's (type, N) root, from the table alone.

    items is the table as a tuple of (type, Step) pairs: it holds the
    steps themselves, so a cached schedule is never served to another
    table.  Groups are numbered in forward order, the root first.  Column
    ranges are in units of the root's columns, and c0 and c1 are None
    where a range spans its whole buffer.  The result is

      * forward: (step, N, slots, spectrum) per group.  slots is None for
        a leaf; each slot (child group, c0, c1, rows, columns) gives the
        group's column range in the child's input buffer and that
        buffer's shape;
      * backward: (group, step, N, slots, last_read, spectrum) per split
        group in backward order, where each slot (child group, c0, c1) is
        the group's column range in the child's spectrum and last_read
        lists the children whose spectra no later step reads.

    spectrum is the (rows, columns) of the group's spectrum, or (None,
    None) for a copy leaf (base None) below the root, whose spectrum is
    its input.
    """
    claimed = {(sig_type, N): 1}  # pending group -> root columns claimed so far
    index = {}                    # (type, N) -> group
    groups = []                   # ((type, N), step, columns, child slots or None)
    n = N
    while n:
        for t, step in items:
            key = (t, n)
            width = claimed.pop(key, None)
            if width is None:
                continue
            index[key] = len(groups)
            slots = None
            if n > step.leaf:
                slots = []
                for child_type, halvings in step.children:
                    child = (child_type, n >> halvings)
                    c0 = claimed.get(child, 0)
                    claimed[child] = c0 + width
                    slots.append((child, c0, c0 + width))
            groups.append((key, step, width, slots))
        n //= 2
    if claimed:
        raise RuntimeError(f"step table leaves {sorted(claimed)} unscheduled")
    forward, backward = [], []
    for g, (key, step, width, slots) in enumerate(groups):
        n = key[1]
        spectrum = (lk(*key), width)
        if slots is None:
            # a copy leaf below the root hands its input buffer on as its
            # spectrum; the root's input may be the caller's array
            forward.append((step, n, None, (None, None) if g and step.base is None else spectrum))
            continue
        fslots, bslots, last_read = [], [], []
        for child, c0, c1 in slots:
            k = index[child]
            span = (k, None, None) if c0 == 0 and c1 == groups[k][2] else (k, c0, c1)
            fslots.append(span + (ln(*child), groups[k][2]))
            bslots.append(span)
            if c0 == 0:  # the first reader in forward order is the last in backward order
                last_read.append(k)
        forward.append((step, n, tuple(fslots), spectrum))
        backward.append((g, step, n, tuple(bslots), tuple(last_read), spectrum))
    backward.reverse()
    return tuple(forward), tuple(backward)


# -- real and complex drivers -------------------------------------------------

def _real_spectra(x, N, steps, table, counter, dest_c, dest_s, own):
    """(cosine, sine) spectra of the real columns in the one-element list x.

    The dc_tt fold [s(0), s(1)+s(N-1), .., s(N/2)] and the ds_tt fold
    [s(1)-s(N-1), .., s(N/2-1)-s(N/2+1)] each run one recursion, whose
    spectrum is written into dest_c or dest_s when given.  When own, x
    is the driver's private copy: both folds are formed before either
    recursion runs and x is dropped; otherwise x may be the caller's
    array, and the sine fold is formed once the cosine recursion has
    returned.  At N = 2 the sine fold is empty, below the smallest N a
    ds_tt signal admits, and it is its own empty spectrum.
    """
    # N // 2 is not kept in a local: above 256 it is an int object, which
    # would stay allocated beside the buffers of both recursions
    x = x.pop()
    even = np.empty((N // 2 + 1, x.shape[1]), x.dtype)
    place(counter, x[0:N // 2 + 1:N // 2], even[0::N // 2])  # rows 0 and N/2
    cadd(counter, x[1:N // 2], x[N - 1:N // 2:-1], even[1:N // 2])
    even = [even]
    if own:
        odd, x = [csub(counter, x[1:N // 2], x[N - 1:N // 2:-1])], None
    # run_levels takes the fold out of its list, and the emptied list goes
    spec_c, even = run_levels(steps, "dc_tt", N, even, table, counter, dest_c), None
    if not own:
        odd, x = [csub(counter, x[1:N // 2], x[N - 1:N // 2:-1])], None
    if N == 2:
        return spec_c, odd.pop()
    return spec_c, run_levels(steps, "ds_tt", N, odd, table, counter, dest_s)


def complex_spectrum(z, N, steps, table, counter, out=None):
    """Spectrum of complex columns, from one real DFT of their float view.

    cx_tt -> re_tt, re_tt: one fold and one pair of recursions transform
    the real and imaginary parts together.  z is copied only when its
    dtype is not the table's complex one or its columns are not adjacent
    in memory.  The spectrum is written into out, or into a new array,
    allocated once both real spectra exist, when out is None.
    """
    cols = z.shape[1]
    cdtype = _complex_of(table.dtype)
    x = _complex_columns(z, cdtype)
    own, x = x is not z, [x.view(table.dtype)]  # no local holds a copy through the recursions
    m = N // 2
    view = None if out is None else out.view(table.dtype)
    spec_c, spec_s = _real_spectra(x, N, steps, table, counter,
                                   None if view is None else view[:m + 1], None, own)
    if view is None:
        out = np.empty((N, cols), cdtype)
        view = out.view(table.dtype)
        place(counter, spec_c, view[:m + 1])
    spec_c = None
    # columns 0::2 hold the real parts' spectra, 1::2 the imaginary parts';
    # a component's half spectrum is C - i S, so for k = 1..N/2-1 S(k) =
    # C1 + S2 + i (C2 - S1) and S(N-k) = C1 - S2 + i (C2 + S1): rows N-k
    # first, from the C values still in rows k.  Rows 0 and N/2 are done
    c1, c2 = view[1:m, 0::2], view[1:m, 1::2]
    s1, s2 = spec_s[:, 0::2], spec_s[:, 1::2]
    csub(counter, c1, s2, view[N - 1:m:-1, 0::2])
    cadd(counter, c2, s1, view[N - 1:m:-1, 1::2])
    cadd(counter, c1, s2, c1)
    csub(counter, c2, s1, c2)
    return out


def _complex_of(dtype):
    return np.complex64 if dtype == np.float32 else np.complex128


def _complex_columns(z, cdtype):
    """z, or a contiguous copy in cdtype when z is of another dtype or its
    columns are not adjacent in memory."""
    if z.dtype == cdtype and (z.shape[1] == 1 or z.strides[1] == z.itemsize):
        return z
    return np.ascontiguousarray(z, cdtype)


def half_spectrum(x, N, steps, table, counter, out=None):
    """Harmonics 0..N/2 of real columns, written into out, or into a new
    array, allocated once both spectra exist, when out is None."""
    spec_c, spec_s = _real_spectra([x], N, steps, table, counter,
                                   None if out is None else out.real,
                                   None if out is None else out.imag[1:-1], False)
    if out is None:
        out = np.empty(spec_c.shape, _complex_of(spec_c.dtype))
        place(counter, spec_c, out.real)
    spec_c = None
    place(counter, spec_s, out.imag[1:-1], np.negative)  # Im(k) = -sine spectrum
    place(counter, 0, out.imag[0::N // 2])  # harmonics 0 and N/2 of a real signal are real
    return out


def one_recursion(x, sig_type, N, steps, table, counter, out=None):
    """Spectrum of sig_type columns, written into out or a new array.

    x may be the caller's array, so the recursion gets it read-only.
    """
    x = x.view()
    x.setflags(write=False)
    return run_levels(steps, sig_type, N, [x], table, counter, out)


# -- column blocks ------------------------------------------------------------

# A block holds about BLOCK_BYTES of input, counted as real working buffer
# (a complex column counts both parts).  Its working set is about 2.3
# times that, so it fits the 2 MiB per-core L2 cache of the Xeon this was
# tuned on, where a whole-width level of a wide call does not.  Where so
# few columns fit in BLOCK_BYTES that a block's rows would be narrower
# than MIN_BLOCK_ROW_BYTES, which is at more than 4096 rows whatever the
# dtype, the call runs at its whole width: blocks cannot fit the cache
# there, and narrow ones ran 6-14% slower than the whole width (float64
# rdft at N = 8192 and 16384 in blocks of 16 columns).
BLOCK_BYTES = 1 << 20
MIN_BLOCK_ROW_BYTES = 256

# NumPy runs a ufunc whose operands are not whole contiguous blocks (column
# slots, strided or row-reversed rows, w[:, None]) through its buffered
# iterator, which takes min(size, bufsize) elements per operand: 64 KiB per
# float64 operand at the default 8192, more than a core's 48 KiB L1d and as
# much as a whole one-column signal at N = 4096.  At 1024 elements, 8 KiB
# per float64 operand, three operands fit L1d: wide calls ran 0.86 times
# as long as at the default, 512 elements ran as fast as 1024 and 256 4.5%
# slower, and 2048 left the largest one-column peak where the default had
# it.  Each call sets it for its own length only: np.setbufsize is per
# thread, and from NumPy 2.0 per context
UFUNC_BUFSIZE = 1024


def _block_width(rows, cols, itemsize):
    """Columns per block of a rows-by-cols input of this itemsize.

    The columns are shared out evenly over the nearest whole number of
    blocks, so no last block of a few columns pays a whole schedule's
    dispatch for them.
    """
    width = BLOCK_BYTES // (rows * itemsize)
    if width * itemsize < MIN_BLOCK_ROW_BYTES:
        return cols
    return -(-cols // max(round(cols / width), 1))


def _in_blocks(x, dtype, transform, bound, run, *args):
    """run(x, *args, None) over the columns of x, one block at a time.

    A 1-D x is one signal: it runs as one column and comes back 1-D.
    run(block, *args, out) transforms a block of columns, whose samples
    it works in dtype, and writes the result into out, or into an array
    of its own when out is None, as for a call that runs as one block.
    A wider call, or one of no columns, allocates the output of the
    public transform before its first block: its rows are the stored
    harmonics of the transform's root, its dtype the complex one of
    dtype for rdft and dtype otherwise.  The arguments are passed on
    rather than bound in a closure, which would stay allocated through
    every call; they end in N, the step table, the TrigTable and the
    counter.  Every ufunc runs with UFUNC_BUFSIZE, and the caller's
    buffer size is restored on the way out.  Every block of a wide call,
    and a one-block call of at most BLOCK_BYTES, runs through _taped,
    under the key _tape_key makes of bound.
    """
    one = x.ndim == 1  # one signal: run as a free (n, 1) view, squeezed back
    x = x[:, None] if one else x
    rows, cols = x.shape
    itemsize = np.dtype(dtype).itemsize
    width = _block_width(rows, cols, itemsize)
    taped = width < cols or rows * cols * itemsize <= BLOCK_BYTES
    key = _tape_key(run, bound, args) if taped else None
    out = None
    if width < cols or not cols:  # every block writes its columns of one output
        out = np.empty((len(sto_k(ROOT_TYPE[transform], args[-4])), cols),
                       _complex_of(dtype) if transform == "rdft" else dtype)
    bufsize = np.setbufsize(UFUNC_BUFSIZE)
    try:
        for c0 in range(0, cols, width or 1):  # no columns: width 0, and no block runs
            block = x if cols <= width else x[:, c0:c0 + width]
            dest = None if out is None else out[:, c0:c0 + width]
            got = (run(block, *args, dest) if key is None else
                   _taped(block, run, args, (*key, block.shape, cols <= width), dest))
            out = got if out is None else out
        return out[:, 0] if one else out
    finally:
        np.setbufsize(bufsize)


# -- tapes --------------------------------------------------------------------

# Per thread: at most TAPE_KEYS keys, each marked by a first block or
# holding a tape, the least recently used evicted first, and one arena of
# at most TAPE_HELD_BYTES, which every tape that fits binds to once and
# keeps between calls.  A tape of a batch-sized block, 1 MiB of input,
# needs 1.31-1.32 MiB, and a one-signal float64 tape up to N = 4096 at
# most 192 KiB (1.04 MiB for the 32 of both algorithms, all four
# transforms and N = 64..4096), so one arena serves them all
TAPE_KEYS = 256
TAPE_HELD_BYTES = 2 << 20
_TAPES = threading.local()


def _tape_key(run, bound, args):
    """What fixes the schedule of run's blocks but their shape, or None when
    they run plain: through a wrapped or patched driver, run_levels,
    numpy or TrigTable, or a step table whose items are no longer those
    of bound, the (token, items) entry_points took when it bound it."""
    *head, steps, table, counter = args
    if (run in _DRIVERS and run_levels is _RUN_LEVELS and np is _NUMPY and type(table) is TrigTable
            and tuple(steps.items()) == bound[1]):
        return run, *head, bound[0], table.dtype, table.pipeline


def _taped(x, run, args, key, dest):
    """run(x, *args, dest) for one block, from this thread's tape of key
    once there is one.

    A key's first block runs plain and marks it, its next one records and
    later ones replay.  A tape is out of the cache while busy, as in a
    call from inside its own recording, and so is the thread's arena.  A
    tape binds to the thread's arena as soon as it is recorded, so that
    no replay allocates views; the arena grows to fit it and then binds
    the other kept tapes again.  A tape larger than TAPE_HELD_BYTES is not
    kept, and its key's later blocks run plain.
    """
    state = _TAPES.__dict__
    # key -> (tape, its views bound to the thread's arena), () once a tape
    # was too large to keep, None once marked
    entries = state.setdefault("entries", {})
    entry = entries.pop(key, False)
    if entry is False or entry == ():
        entries[key] = None if entry is False else entry
        if len(entries) > TAPE_KEYS:
            del entries[next(iter(entries))]
        return run(x, *args, dest)
    *head, steps, table, counter = args
    if entry is None:  # bound below once the run's own buffers are gone
        (out, tape), kept = _record(x, run, head, steps, table, dest), None
    else:
        tape, kept = entry
    if tape.arena <= TAPE_HELD_BYTES:
        arena = state.pop("arena", None)
        if arena is None or arena.nbytes < tape.arena:
            arena = np.empty(tape.arena, np.uint8)
            for k, e in entries.items():  # so that no replay binds
                if e:
                    entries[k] = e[0], _bind(e[0], arena)
        if kept is None or kept.arena is not arena:
            kept = _bind(tape, arena)
        if entry is not None:
            out = _replay(kept, _root(run, x, table), table.dtype, dest)
        state["arena"] = arena
    counter.adds += tape.adds
    counter.muls += tape.muls
    table._log.update(tape.log)
    entries[key] = () if kept is None else (tape, kept)  # the most recently used go last
    return out


def _root(run, x, table):
    """The block x as run reads it: cdft's complex columns, which it
    copies where _complex_columns says."""
    return _complex_columns(x, _complex_of(table.dtype)) if run is complex_spectrum else x


def _address(a):
    """The address of a's first cell.  Not a.ctypes.data: NumPy's getter
    looks its helper up by a name string that it makes on each call, and
    CPython's type attribute cache keeps each such name, in a slot picked
    by its address, until another lookup takes the slot."""
    return a.__array_interface__["data"][0]


# __array_interface__ interns its key "typestr" on each call.  While
# nothing else holds that string, CPython 3.11 adds it to its table of
# interned strings and drops it again each time, and rebuilds the table,
# 1.9 MB at a time, every few ten thousand calls
_TYPESTR = sys.intern("typestr")


def _owner(a):
    """The array that owns a's data: NumPy points a view at the owner, but
    stops at an array whose base is an array subclass, such as a memmap."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _record(x, run, head, steps, table, dest):
    """(output, tape) of a plain run of the block x into dest that records its ops.

    The run charges a counter and logs into a table of its own, whose
    counts and log the tape keeps, and reads the root _root makes, so
    that the recorder knows the root's views; a root whose rows share
    bytes, as a broadcast one's, is copied first, as no index names them.
    """
    root = _root(run, x, table)
    if root.shape[0] > 1 and not root.strides[0]:
        root = np.ascontiguousarray(root)
    rec, log = OpCounter(), TrigTable(table.dtype, table.pipeline)
    rec.tape = _Recorder(root.view(table.dtype), None if dest is None else dest.view(table.dtype))
    out = run(root, *head, steps, log, rec, dest)
    return out, rec.tape.finish(out, table.dtype, rec, log)


# an operand a replay takes from the root (which 0) or the output (which 1)
_At = namedtuple("_At", "which index")


def _index(d, shape, strides, ref):
    """The basic index of the 2-D ref that gives the view starting d bytes
    past ref's first cell with this shape and strides; a 1-D view is a
    row.  ref is a root, whose views span all its columns, or an output,
    whose rows are outer and whose strides are positive."""
    rs, cs = ref.strides
    index = [d // rs if rs else 0]
    index.append((d - index[0] * rs) // cs if cs else 0)
    for axis, n, s in zip((0, 1)[2 - len(shape):], shape, strides):
        step = s // (rs, cs)[axis] if n > 1 and s else 1
        stop = index[axis] + n * step
        index[axis] = slice(index[axis], stop if stop >= 0 else None, step)
    return tuple(index)


class _Recorder:
    """The tape list of a recording counter.

    Each op the counted helpers and place append goes into code as ints:
    the op's place in _FUNCTIONS plus 8 times its operand count, then its
    operands.  A view of the root or dest (an _At) or a read-only constant
    is one int, -1 - its index in objects; a view of a buffer the run owns
    is 16 times the buffer's serial plus 4 times its ndim, plus 2 when it
    is C-contiguous and 1 when its shape is that of the op's view before
    it, then its byte offset in the buffer, its shape unless that one's,
    and its strides unless C-contiguous, as 32-bit ints: a taped block's
    buffers span a few MiB.  Buffers are known by weak reference only, so
    each is freed when the plain run frees it, and finish drops the
    references.  spans holds each one's bytes and first and last op.
    """

    def __init__(self, root, dest):
        self.refs = {id(_owner(r)): (w, r, _address(r)) for w, r in enumerate((root, dest))
                     if r is not None}
        self.code, self.objects, self.owners, self.ops = array("i"), [], {}, 0
        self.spans = array("q")

    def append(self, op):
        fn, ins, out = op
        if not out.size:  # writes nothing
            return
        self.code.append(_FUNCTIONS.index(fn) + 8 * (len(ins) + 1))
        shape = None
        for a in (*ins, out):
            owner = _owner(a) if isinstance(a, np.ndarray) else None
            ref = self.refs.get(id(owner))
            if ref is not None:
                a = _At(ref[0], _index(_address(a) - ref[2], a.shape, a.strides, ref[1]))
            elif owner is not None and a.flags.writeable:
                known = self.owners.get(id(owner))
                if known is None:  # a buffer's first use; its entry goes with it
                    gone = weakref.ref(owner, lambda _, key=id(owner): self.owners.pop(key, None))
                    known = self.owners[id(owner)] = len(self.spans) // 3, _address(owner), gone
                    self.spans.extend((owner.nbytes, self.ops, self.ops))
                serial, address, _ = known
                self.spans[3 * serial + 2] = self.ops
                same, shape, c = a.shape == shape, a.shape, a.flags.c_contiguous
                self.code.extend((16 * serial + 4 * a.ndim + 2 * c + same, _address(a) - address,
                                  *(() if same else a.shape), *(() if c else a.strides)))
                continue
            self.code.append(-1 - len(self.objects))
            self.objects.append(a)
        self.ops += 1

    def finish(self, out, dtype, counter, log):
        """The tape of the run that returned out, its block's output, whose
        ops ran in dtype, the table's.

        An output the run allocated is a buffer of the tape's, which a
        replay copies out after the last op.
        """
        ref, view = self.owners.get(id(_owner(out))), out.view(dtype)
        self.owners.clear()  # with their callbacks, which hold the recorder and the root
        if ref is not None:  # the output is read after the last op
            self.spans[3 * ref[0] + 2] = self.ops
            ref = ref[0], _address(view) - ref[1], view.shape, view.strides, out.dtype
        offsets, arena = _pack(self.spans)
        return _Tape(self.code, self.objects, offsets, arena, dtype, ref, counter.adds,
                     counter.muls, log._log)


def _pack(spans):
    """(offset of each buffer in an arena, the arena's bytes), for the
    (bytes, first op, last op) of each buffer in spans.

    The buffers are placed largest first, each at the lowest offset where
    it shares no byte with a buffer whose interval of ops meets its own,
    so that no op's operands share bytes they did not share in the plain
    run.
    """
    offsets, placed = array("q", spans[::3]), [(0, 0, 0, 0)]
    for k in sorted(range(len(offsets)), key=lambda k: (-spans[3 * k], spans[3 * k + 1])):
        size, first, last = spans[3 * k:3 * k + 3]
        size, off = -(-max(size, 1) // 64) * 64, 0
        for o0, o1 in sorted((o0, o1) for o0, o1, f, l in placed if f <= last and first <= l):
            if off + size <= o0:
                break
            off = max(off, o1)
        placed.append((off, off + size, first, last))
        offsets[k] = off
    return offsets, max(o1 for _, o1, _, _ in placed)


# what an op may call: the counted helpers' ufuncs, and place's copy
# (None) and sign flip
_FUNCTIONS = (None, np.add, np.subtract, np.multiply, np.negative)
# a block's recorded ops, in the recorder's code, with each buffer's
# offset in an arena and the arena's bytes; the table's dtype, in which
# the ops run; the (buffer, offset, shape, strides) of a one-block tape's
# output in the table's dtype and the output's dtype, or None; and the
# counts and lookups of the run
_Tape = namedtuple("_Tape", "code objects offsets arena dtype out adds muls log")
# a tape's ops bound to views of an arena, in segments: the calls up to an
# op that takes an operand from the root or the output, then that op as
# (function, operands, (position, which, index) of each such operand);
# and a one-block tape's output or None
_Bound = namedtuple("_Bound", "arena segments out")


def _copy(x, out):
    out[...] = x


def _bind(tape, arena):
    """The tape's ops bound to views of arena, in the table's dtype."""
    calls, segments, ints, out = [], [], iter(tape.code), None
    for header in ints:
        args, shape = [], None
        for _ in range(header // 8):
            tag = next(ints)
            if tag < 0:
                args.append(tape.objects[-1 - tag])
                continue
            n, offset = tag % 16 // 4, tape.offsets[tag // 16] + next(ints)
            shape = shape if tag % 2 else tuple(islice(ints, n))
            strides = None if tag & 2 else tuple(islice(ints, n))  # None: C order
            args.append(np.ndarray(shape, tape.dtype, arena, offset, strides))
        fn = _FUNCTIONS[header % 8]
        ats = [(p, a.which, a.index) for p, a in enumerate(args) if type(a) is _At]
        if ats:
            segments.append((calls, (fn or _copy, args, ats)))
            calls = []
        else:  # a copy binds out.__setitem__
            calls.append((fn, tuple(args)) if fn
                         else (args[-1].__setitem__, (Ellipsis, *args[:-1])))
    segments.append((calls, None))
    if tape.out is not None:
        serial, offset, shape, strides, dtype = tape.out
        out = np.ndarray(shape, tape.dtype, arena, tape.offsets[serial] + offset, strides).view(dtype)
    return _Bound(arena, segments, out)


def _replay(bound, x, dtype, dest):
    """The output of the block x, as run reads it, from the bound ops,
    which read x and write dest through basic indexes of their views in
    dtype, the table's: a one-block tape's output, copied out of the
    arena, or dest."""
    refs = x.view(dtype), None if dest is None else dest.view(dtype)
    for calls, patch in bound.segments:
        for fn, args in calls:
            fn(*args)
        if patch is not None:
            fn, args, ats = patch
            args = args.copy()
            for p, which, index in ats:
                args[p] = refs[which][index]
            fn(*args)
    return dest if bound.out is None else bound.out.copy()


# -- public entry points ----------------------------------------------------

def _prepare(values, transform, table, counter):
    """(samples, N, table, counter) of a call to transform, or ValueError.

    The module docstring gives the input contract.
    """
    x = np.asarray(values)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected one signal (1-D) or columns of signals (2-D), "
                         f"got a {x.ndim}-D array")
    if x.dtype.kind not in "biufc":
        raise ValueError(f"samples must be of a numeric dtype, got {x.dtype}")
    if transform == "cdft":
        dtype = np.dtype(np.float32 if x.dtype == np.complex64 else np.float64)
    else:
        if x.dtype.kind == "c":
            raise ValueError("this transform takes real samples; use cdft for complex ones")
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        dtype = x.dtype
    N = periodization(transform, x.shape[0])
    if table is None:
        table = TrigTable(dtype=dtype)  # a constructor only: the constants are cached
    if np.dtype(table.dtype) != dtype:
        raise ValueError(f"table dtype {table.dtype} does not match input dtype {dtype}")
    return x, N, table, OpCounter() if counter is None else counter


def entry_points(module, steps):
    """(cdft, rdft, dct0, dst0) of the recursion declared by this step table.

    module is the binding module's __name__.  Each function reports
    itself as part of that module and names its algorithm, so help(),
    profilers and tracers that sort functions by module tell the two
    recursions apart.
    """
    algorithm = module.rpartition(".")[2].capitalize()
    # a token for the tape keys, which hold it, and the items that replay
    bound = object(), tuple(steps.items())

    def cdft(values, table=None, counter=None):
        """complex DFT, reported for k = 0..N-1."""
        z, N, table, counter = _prepare(values, "cdft", table, counter)
        return _in_blocks(z, _complex_of(table.dtype), "cdft", bound, complex_spectrum, N, steps,
                          table, counter)

    def rdft(values, table=None, counter=None):
        """real-input DFT, reported for k = 0..N/2."""
        x, N, table, counter = _prepare(values, "rdft", table, counter)
        return _in_blocks(x, x.dtype, "rdft", bound, half_spectrum, N, steps, table, counter)

    def dct0(values, table=None, counter=None):
        """cosine transform; values are s(0)..s(N/2)."""
        x, N, table, counter = _prepare(values, "dct0", table, counter)
        return _in_blocks(x, x.dtype, "dct0", bound, one_recursion, ROOT_TYPE["dct0"], N, steps,
                          table, counter)

    def dst0(values, table=None, counter=None):
        """sine transform; values are s(1)..s(N/2-1)."""
        x, N, table, counter = _prepare(values, "dst0", table, counter)
        return _in_blocks(x, x.dtype, "dst0", bound, one_recursion, ROOT_TYPE["dst0"], N, steps,
                          table, counter)

    fns = (cdft, rdft, dct0, dst0)
    for fn in fns:
        fn.__module__ = module
        fn.__qualname__ = fn.__name__
        fn.__doc__ = f"{algorithm} {fn.__doc__}"
    return fns


# what a block must run through to replay its tape
_DRIVERS, _RUN_LEVELS, _NUMPY = (complex_spectrum, half_spectrum, one_recursion), run_levels, np
