/* The transport update of one block of x-planes of the 3-D upwind step.
 *
 * adr_lab.solver3d builds this file with -ffp-contract=off, so every
 * operation below is one IEEE operation, rounded as numpy rounds it, and
 * the terms are grouped as in the formula of solver3d's docstring read left
 * to right.  Any change of grouping changes output bytes.
 */

#include <stdint.h>

/* Step the cells of x-planes [lo, hi), y in [geom[4], geom[5]) and z in
 * [geom[6], geom[7]) of all geom[0] species from old to new, C-contiguous
 * arrays of shape geom[0..3] (species, x, y, z) that do not overlap: a z
 * neighbour lies at +-1, a y neighbour at +-nz, an x neighbour at +-ny*nz,
 * and a cell of new at the offset of its cell of old.  w holds -u_x dt/dx,
 * u_y dt/dy, u_z dt/dz, then k_i dt/d_i^2 for each axis, then dt.  With
 * rates non-zero, new holds the block's reaction rates on entry and dt
 * times them is added last.  Every cell read lies inside old: the block is
 * inside the interior.
 */
void adr_step3d_block(const double *restrict old, double *restrict new,
                      const int64_t *geom, const double *w,
                      int64_t lo, int64_t hi, int rates)
{
    const int64_t species = geom[0], nx = geom[1], ny = geom[2], nz = geom[3];
    const int64_t y0 = geom[4], y1 = geom[5], z0 = geom[6], z1 = geom[7], ox = ny * nz;
    const double a0 = w[0], a1 = w[1], a2 = w[2];
    const double d0 = w[3], d1 = w[4], d2 = w[5], dt = w[6];

    for (int64_t s = 0; s < species; s++)
        for (int64_t x = lo; x < hi; x++)
            for (int64_t y = y0; y < y1; y++) {
                const int64_t row = ((s * nx + x) * ny + y) * nz;
                for (int64_t z = z0; z < z1; z++) {
                    const double *p = old + row + z;
                    const double centre = p[0], twice = centre * 2.0;
                    double v = (centre - p[-ox]) * a0;
                    v = v - (centre - p[-nz]) * a1;
                    v = v - (centre - p[-1]) * a2;
                    v = v + ((p[ox] - twice) + p[-ox]) * d0;
                    v = v + ((p[nz] - twice) + p[-nz]) * d1;
                    v = v + ((p[1] - twice) + p[-1]) * d2;
                    v = v + centre;
                    if (rates)
                        v = v + new[row + z] * dt;
                    new[row + z] = v;
                }
            }
}
