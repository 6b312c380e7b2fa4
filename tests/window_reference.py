"""The window matrix as a scipy CSR matrix, kept as a test reference.

This is the builder epiwave used before window matrices were held in
cell-block form: it walks every index offset the kernel can reach and
evaluates the pair function on every window pair at that offset, at
window coordinates. The cell-block form must reproduce its values, its
stored-entry count and its products.
"""

import numpy as np
import scipy.sparse


def window_pair_matrix(grid, pair_fn, support_radius) -> scipy.sparse.csr_matrix:
    n_axis = 2 * grid.window_radius * grid.cell_points
    reach = int(np.ceil(support_radius / grid.spacing)) + 1
    offsets_1d = np.arange(-reach, reach + 1)
    if grid.dim == 1:
        offsets = [(o,) for o in offsets_1d]
        shape_idx = (n_axis,)
    else:
        offsets = [(a, b) for a in offsets_1d for b in offsets_1d
                   if a * a + b * b <= (reach + 1) ** 2]
        shape_idx = (n_axis, n_axis)
    idx = np.arange(np.prod(shape_idx)).reshape(shape_idx)
    rows, cols, vals = [], [], []
    for off in offsets:
        src = idx
        dst = idx
        for axis, o in enumerate(off):
            if o >= 0:
                src = np.take(src, np.arange(0, shape_idx[axis] - o), axis=axis)
                dst = np.take(dst, np.arange(o, shape_idx[axis]), axis=axis)
            else:
                src = np.take(src, np.arange(-o, shape_idx[axis]), axis=axis)
                dst = np.take(dst, np.arange(0, shape_idx[axis] + o), axis=axis)
        i = src.ravel()
        j = dst.ravel()
        v = np.asarray(pair_fn(grid.window_nodes[i], grid.window_nodes[j]))
        keep = v != 0
        rows.append(i[keep])
        cols.append(j[keep])
        vals.append(v[keep])
    n = grid.n_window
    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return mat.tocsr()
