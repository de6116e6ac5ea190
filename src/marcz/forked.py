"""One map over forked processes, for `analyze`'s trace writers and the
Monte Carlo reps of `verify --suite mslln`. It needs no numpy, and the
library's simulate, grid and invert path never loads it."""

import os
import warnings


def forked_map(fn, items):
    """`[fn(x) for x in items]` for a sequence `items`, in item order,
    computed in stride shares `items[w::workers]` over up to one process
    per usable CPU.

    `workers` is the CPU affinity of the process, capped at the number of
    items, and 1 without os.fork or os.sched_getaffinity. The parent
    computes share 0 and forks one child per other share; a child pickles
    its share's results into its own pipe and ends with os._exit(0), or
    os._exit(1) on a failure, so it never returns into the caller or
    flushes the parent's buffers. After its own share the parent reads each
    pipe to EOF and reaps that child; when the child failed, the parent
    computes its share again itself, so a failure that persists raises
    there, and a transient one (a killed child, a disk with space again)
    still completes. When the parent raises, it closes every pipe, so that
    each child still running fails at its write and ends, and reaps them.
    `fn` must give the same result in any process for the same item.
    """
    import pickle

    cpus = (os.sched_getaffinity(0)
            if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else (0,))
    workers = max(1, min(len(cpus), len(items)))

    def share(w):
        return [fn(x) for x in items[w::workers]]
    results = [None] * len(items)
    children = {}  # share -> (pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork in a threaded process, and
                # numpy's idle BLAS pool counts; a child runs fn alone
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as fh:
                        pickle.dump(share(w), fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)  # so that the pipe ends when the child does
            children[w] = (pid, read_end)
        results[0::workers] = share(0)
        while children:
            w, (pid, read_end) = children.popitem()
            try:
                with open(read_end, "rb") as fh:
                    data = fh.read()
            finally:
                status = os.waitpid(pid, 0)[1]
            results[w::workers] = share(w) if status else pickle.loads(data)
    finally:
        # a later child holds the read ends of the earlier pipes: close them
        # all first, so that every child still writing fails and ends
        for pid, read_end in children.values():
            os.close(read_end)
        for pid, read_end in children.values():
            os.waitpid(pid, 0)
    return results
