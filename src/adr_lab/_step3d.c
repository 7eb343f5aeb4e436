/* The transport update of one block of x-planes of the 3-D upwind step.
 *
 * adr_lab.solver3d builds this file with -ffp-contract=off, so every
 * operation below is one IEEE operation, rounded as numpy rounds it, and
 * the terms are grouped as in the formula of solver3d's docstring read left
 * to right.  Any change of grouping changes output bytes.
 */

#include <stdint.h>

/* Step the cells of x-planes [lo, hi), y in [geom[1], geom[2]) and z in
 * [geom[3], geom[4]) of all geom[0] species from old to new.
 *
 * geom[5..8] and geom[9..12] are the element strides (species, x, y, z) of
 * old and of new.  w holds -u_x dt/dx, u_y dt/dy, u_z dt/dz, then
 * k_i dt/d_i^2 for each axis, then dt.  With rates non-zero, new holds the
 * block's reaction rates on entry and dt times them is added last.  Every
 * cell read lies inside old: the block is inside the interior.
 */
void adr_step3d_block(const double *restrict old, double *restrict new,
                      const int64_t *geom, const double *w,
                      int64_t lo, int64_t hi, int rates)
{
    const int64_t species = geom[0], y0 = geom[1], y1 = geom[2], z0 = geom[3], z1 = geom[4];
    const int64_t os = geom[5], ox = geom[6], oy = geom[7], oz = geom[8];
    const int64_t ns = geom[9], nx = geom[10], ny = geom[11], nz = geom[12];
    const double a0 = w[0], a1 = w[1], a2 = w[2];
    const double d0 = w[3], d1 = w[4], d2 = w[5], dt = w[6];

    for (int64_t s = 0; s < species; s++)
        for (int64_t x = lo; x < hi; x++)
            for (int64_t y = y0; y < y1; y++) {
                const double *c = old + s * os + x * ox + y * oy;
                double *out = new + s * ns + x * nx + y * ny;
                for (int64_t z = z0; z < z1; z++) {
                    const double *p = c + z * oz;
                    const double centre = p[0], twice = centre * 2.0;
                    double v = (centre - p[-ox]) * a0;
                    v = v - (centre - p[-oy]) * a1;
                    v = v - (centre - p[-oz]) * a2;
                    v = v + ((p[ox] - twice) + p[-ox]) * d0;
                    v = v + ((p[oy] - twice) + p[-oy]) * d1;
                    v = v + ((p[oz] - twice) + p[-oz]) * d2;
                    v = v + centre;
                    if (rates)
                        v = v + out[z * nz] * dt;
                    out[z * nz] = v;
                }
            }
}
