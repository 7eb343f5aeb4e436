/* The compiled part of adr_lab: the transport update of one block of
 * x-planes of the 3-D upwind step, the reaction rates of a block of a
 * field, the 2-D centred step, the sum of the terms of the 2-D series at
 * the grid nodes, the sum of squares of a field under its box, and the
 * CSV formatter of float64 rows.
 *
 * adr_lab._native builds this file at -O3 with -ffp-contract=off and no
 * fast-math, so every floating-point operation of a step, of the rates, of
 * the series or of a sum is one IEEE operation, rounded as numpy rounds
 * it, also in each lane of a loop the compiler vectorizes, and the terms
 * are grouped as in the numpy form they replace.  Any change of grouping
 * changes output bytes.  exp is libm's, the function math.exp calls.  The
 * formatter converts with integer arithmetic only.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

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

/* Write the reaction rates of a block of a field, geom[0] species of
 * geom[1] x geom[2] rows of geom[3] cells, from conc to out, which do not
 * overlap: cell z of row (a, b) of species s lies at
 * s geom[4] + a geom[5] + b geom[6] + z in conc and at
 * s geom[7] + a geom[8] + b geom[9] + z in out.  loss and sto are the
 * C-contiguous (species, reactions) loss exponents and gain - loss, h the
 * rates h_k(t), and g a buffer of 2 geom[3] doubles.  Row by row, every
 * species starts at 0.0; then reaction by reaction g is h_k times the
 * first factor, then times each further one, a power c^l being
 * c * c * ... * c first, and each species the reaction changes by v takes
 * acc + g, acc - g or acc + v g.  These are the operations of the numpy
 * form, so a species that no reaction changes keeps 0.0 and the first
 * change of a species is 0.0 + g, 0.0 - g or 0.0 + v g.
 */
void adr_rates_block(const double *restrict conc, double *restrict out,
                     const int64_t *geom, int64_t reactions, const int64_t *loss,
                     const int64_t *sto, const double *h, double *restrict g)
{
    const int64_t species = geom[0], n = geom[3];
    double *restrict f = g + n;

    for (int64_t a = 0; a < geom[1]; a++)
        for (int64_t b = 0; b < geom[2]; b++) {
            const double *c = conc + a * geom[5] + b * geom[6];
            double *o = out + a * geom[8] + b * geom[9];
            for (int64_t s = 0; s < species; s++)
                for (int64_t z = 0; z < n; z++)
                    o[s * geom[7] + z] = 0.0;
            for (int64_t k = 0; k < reactions; k++) {
                int first = 1;
                for (int64_t s = 0; s < species; s++) {
                    const int64_t l = loss[s * reactions + k];
                    if (l == 0)
                        continue;
                    const double *x = c + s * geom[4];
                    if (l > 1) {
                        for (int64_t z = 0; z < n; z++)
                            f[z] = x[z] * x[z];
                        for (int64_t e = 2; e < l; e++)
                            for (int64_t z = 0; z < n; z++)
                                f[z] = f[z] * x[z];
                        x = f;
                    }
                    if (first)
                        for (int64_t z = 0; z < n; z++)
                            g[z] = h[k] * x[z];
                    else
                        for (int64_t z = 0; z < n; z++)
                            g[z] = g[z] * x[z];
                    first = 0;
                }
                if (first)
                    for (int64_t z = 0; z < n; z++)
                        g[z] = h[k];
                for (int64_t s = 0; s < species; s++) {
                    const int64_t v = sto[s * reactions + k];
                    double *acc = o + s * geom[7];
                    if (v == 1)
                        for (int64_t z = 0; z < n; z++)
                            acc[z] = acc[z] + g[z];
                    else if (v == -1)
                        for (int64_t z = 0; z < n; z++)
                            acc[z] = acc[z] - g[z];
                    else if (v != 0)
                        for (int64_t z = 0; z < n; z++)
                            acc[z] = acc[z] + (double)v * g[z];
                }
            }
        }
}

/* Step the interior nodes of all species of a 2-D field from old to new,
 * C-contiguous arrays of shape (species, nx, ny) that do not overlap, with
 * the weights (c0, xp, xm, yp, ym) of solver2d.stability2d, grouped as
 * (((c0 c + xp c[i+1]) + xm c[i-1]) + yp c[j+1]) + ym c[j-1].  The
 * boundary nodes of new are not written.
 */
void adr_step2d(const double *restrict old, double *restrict new,
                int64_t species, int64_t nx, int64_t ny,
                double c0, double xp, double xm, double yp, double ym)
{
    for (int64_t s = 0; s < species; s++)
        for (int64_t i = 1; i < nx - 1; i++) {
            const int64_t row = (s * nx + i) * ny;
            for (int64_t j = 1; j < ny - 1; j++) {
                const double *p = old + row + j;
                double v = c0 * p[0];
                v = v + xp * p[ny];
                v = v + xm * p[-ny];
                v = v + yp * p[1];
                v = v + ym * p[-1];
                new[row + j] = v;
            }
        }
}

/* Sum terms terms of the 2-D sine series at the nodes of an nx-by-ny grid
 * into acc, C-contiguous (nx, ny), starting from 0.0.  Term q adds
 * (a[q] exp(lam[q] t)) (sx[m[q]-1][i] sy[n[q]-1][j]) to node (i, j); sx
 * is (max m, nx) and sy (max n, ny), C-contiguous.  Each node sees the
 * operations, in order, of acc += coef * np.outer(sin_x[m], sin_y[n]) over
 * the terms.  The row loop is a plain one, which -O3 vectorizes, each lane
 * rounded as the lone operation is.  A term of coef +-0.0 is skipped:
 * times the finite sines it would add +-0.0 to sums that start at +0.0
 * and so are never -0.0.
 */
void adr_sample_series(const double *restrict sx, const double *restrict sy,
                       const int64_t *m, const int64_t *n, const double *a,
                       const double *lam, int64_t terms, int64_t nx, int64_t ny,
                       double t, double *restrict acc)
{
    for (int64_t k = 0; k < nx * ny; k++)
        acc[k] = 0.0;
    for (int64_t q = 0; q < terms; q++) {
        const double coef = a[q] * exp(lam[q] * t);
        if (coef == 0.0)
            continue;
        const double *x = sx + (m[q] - 1) * nx, *y = sy + (n[q] - 1) * ny;
        for (int64_t i = 0; i < nx; i++) {
            const double xi = x[i];
            double *row = acc + i * ny;
            for (int64_t j = 0; j < ny; j++)
                row[j] = row[j] + coef * (xi * y[j]);
        }
    }
}

/* A C-contiguous array of ndim axes of sizes shape[d], and the box of cells
 * lo[d] <= index d < hi[d] outside which every value is +0.0. */
struct box {
    int ndim;
    const int64_t *shape, *lo, *hi;
};

/* The flat index of the first cell of the non-empty box b at or after flat
 * index a, or INT64_MAX when there is none. */
static int64_t next_in_box(const struct box *b, int64_t a)
{
    int64_t index[b->ndim], flat = 0;
    int d;

    for (d = b->ndim - 1; d >= 0; d--) {
        index[d] = a % b->shape[d];
        a /= b->shape[d];
    }
    for (d = 0; d < b->ndim && b->lo[d] <= index[d] && index[d] < b->hi[d]; d++)
        ;
    if (d < b->ndim) {
        if (index[d] < b->lo[d])
            index[d] = b->lo[d];
        else  /* past the box along d: the box's next row along the axes before d */
            do {
                if (--d < 0)
                    return INT64_MAX;
            } while (++index[d] == b->hi[d]);
        for (int e = d + 1; e < b->ndim; e++)
            index[e] = b->lo[e];
    }
    for (d = 0; d < b->ndim; d++)
        flat = flat * b->shape[d] + index[d];
    return flat;
}

/* The sum of v[i] * v[i] over the n values from v[first], in the order of
 * numpy's pairwise sum: under 8 values one by one from 0.0; up to 128,
 * eight accumulators seeded with the first eight squares, stepped by 8,
 * combined pairwise, then the rest one by one; above, the halves split at
 * n/2 rounded down to a multiple of 8.  A part that meets no cell of the
 * box b (NULL: the whole array) holds only +0.0, so its sum is +0.0
 * without reading it. */
static double sum_squares(const double *v, int64_t first, int64_t n, const struct box *b)
{
    const double *x = v + first;
    double res = 0.0;
    int64_t i;

    if (b != NULL && next_in_box(b, first) >= first + n)
        return 0.0;
    if (n < 8) {
        for (i = 0; i < n; i++)
            res += x[i] * x[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = x[j] * x[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += x[i + j] * x[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += x[i] * x[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return sum_squares(v, first, n2, b) + sum_squares(v, first + n2, n - n2, b);
}

/* float((v**2).sum()) of the C-contiguous array v of ndim axes of sizes
 * shape[d], bit for bit, when every value outside the box
 * lo[d] <= index d < hi[d] is +0.0, at a cost in proportion to the box.
 * A box that is the whole array is not checked part by part: checking
 * each part against it added about 30% to a whole 3 x 101^3 sum. */
double adr_sum_squares(const double *v, int ndim, const int64_t *shape,
                       const int64_t *lo, const int64_t *hi)
{
    const struct box b = {ndim, shape, lo, hi};
    int64_t size = 1;
    int whole = 1;

    for (int d = 0; d < ndim; d++) {
        if (lo[d] >= hi[d])
            return 0.0;
        whole = whole && lo[d] == 0 && hi[d] == shape[d];
        size *= shape[d];
    }
    return sum_squares(v, 0, size, whole ? NULL : &b);
}

/* The shortest decimal that reads back as a double, by Schubfach
 * (R. Giulietti, "The Schubfach way to render doubles", 2020): of the
 * decimals inside the double's rounding interval it finds one with the
 * fewest digits, and of those the closest, as repr does.
 *
 * adr_pow10[k - POW10_MIN] is g(k) = floor(10^k / 2^r) + 1 with
 * r = floor(log2 10^k) - 127, a number in (2^127, 2^128), as its high and
 * low 64-bit words.  The loader computes it with Python integers and fills
 * it before the first call; adr_pow10_range tells it the range of k.
 */
#define POW10_MIN (-292)
#define POW10_MAX 326

const int32_t adr_pow10_range[2] = {POW10_MIN, POW10_MAX};
uint64_t adr_pow10[POW10_MAX - POW10_MIN + 1][2];

/* floor(x / 2^n) for either sign of x.  With the constants of shortest it
 * gives floor(e log10 2), floor(e log10 2 - log10 4/3) and floor(e log2 10)
 * exactly for every exponent e a double takes. */
static int32_t floor_shift(int64_t x, int n)
{
    return (int32_t)(x >= 0 ? x >> n : -((-x + ((int64_t)1 << n) - 1) >> n));
}

/* g cp / 2^128 rounded down, with its lowest bit set when the fraction
 * dropped is not zero.  g exceeds 10^k / 2^r by less than one, so an exact
 * quotient can show a fraction below 2^-63, which is taken for zero. */
static uint64_t round_to_odd(const uint64_t g[2], uint64_t cp)
{
    const unsigned __int128 x = (unsigned __int128)cp * g[1];
    const unsigned __int128 y = (unsigned __int128)cp * g[0] + (uint64_t)(x >> 64);
    return (uint64_t)(y >> 64) | ((uint64_t)y > 1);
}

/* The shortest closest decimal digits * 10^exponent of the positive finite
 * double with biased exponent be and fraction bits f. */
static uint64_t shortest(uint64_t f, int32_t be, int32_t *exponent)
{
    uint64_t c = f;
    int32_t q = -1074;
    if (be != 0) {
        c = f | (UINT64_C(1) << 52);
        q = be - 1075;
        /* an integer: its own digits */
        if (q <= 0 && q > -53 && (c & ((UINT64_C(1) << -q) - 1)) == 0) {
            *exponent = 0;
            return c >> -q;
        }
    }
    /* the ends of the rounding interval read back as v when c is even */
    const int even = (c & 1) == 0;
    const int closer_below = f == 0 && be > 1;  /* the gap below is half the gap above */
    const uint64_t cbl = 4 * c - 2 + closer_below, cb = 4 * c, cbr = 4 * c + 2;
    const int32_t k = floor_shift((int64_t)q * 1262611 - (closer_below ? 524031 : 0), 22);
    const int32_t h = q + floor_shift((int64_t)-k * 1741647, 19) + 1;
    const uint64_t *g = adr_pow10[-k - POW10_MIN];
    const uint64_t vbl = round_to_odd(g, cbl << h);
    const uint64_t vb = round_to_odd(g, cb << h);
    const uint64_t vbr = round_to_odd(g, cbr << h);
    const uint64_t lower = vbl + !even, upper = vbr - !even;

    const uint64_t s = vb / 4;
    if (s >= 10) {
        /* one digit fewer: at most one of the two neighbours lies inside */
        const uint64_t sp = s / 10;
        const int up = lower <= 40 * sp, wp = 40 * sp + 40 <= upper;
        if (up != wp) {
            *exponent = k + 1;
            return sp + wp;
        }
    }
    const int u = lower <= 4 * s, w = 4 * s + 4 <= upper;
    *exponent = k;
    if (u != w)
        return s + w;
    /* both inside: the closer, the even one at a tie */
    const uint64_t mid = 4 * s + 2;
    return s + (vb > mid || (vb == mid && (s & 1) != 0));
}

/* the two digits of each of 0..99 */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Write the decimal digits of m so that they end before end; returns their
 * start. */
static char *put_digits(char *end, uint64_t m)
{
    for (; m >= 100; m /= 100)
        end = memcpy(end - 2, PAIRS + 2 * (m % 100), 2);
    if (m >= 10)
        return memcpy(end - 2, PAIRS + 2 * m, 2);
    *--end = (char)('0' + m);
    return end;
}

/* Write str(v) at p; returns the end. */
static char *put_int(char *p, int64_t v)
{
    const uint64_t m = v < 0 ? -(uint64_t)v : (uint64_t)v;
    int n = 1;
    for (uint64_t rest = m; rest >= 10; rest /= 10)
        n++;
    if (v < 0)
        *p++ = '-';
    put_digits(p + n, m);
    return p + n;
}

/* Write repr(v) at p; returns the end.  At most 24 bytes, as in
 * "-2.2250738585072014e-308". */
static char *put_double(char *p, double v)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    const uint64_t f = bits & ((UINT64_C(1) << 52) - 1);
    const int32_t be = (int32_t)(bits >> 52 & 0x7ff);
    if (be == 0x7ff && f != 0) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (be == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (be == 0 && f == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int32_t e;
    uint64_t m = shortest(f, be, &e);
    while (m % 10 == 0) {
        m /= 10;
        e++;
    }
    char buf[20];
    const char *digits = put_digits(buf + sizeof buf, m);
    const int n = (int)(buf + sizeof buf - digits);
    const int decpt = n + e;  /* v = 0.digits * 10^decpt */
    if (decpt <= -4 || decpt > 16) {
        *p++ = digits[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, n - 1);
            p += n - 1;
        }
        int x = decpt - 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        if (x >= 100) {
            *p++ = (char)('0' + x / 100);
            x %= 100;
        }
        *p++ = (char)('0' + x / 10);
        *p++ = (char)('0' + x % 10);
    } else if (decpt <= 0) {
        memcpy(p, "0.000", 2 - decpt);
        p += 2 - decpt;
        memcpy(p, digits, n);
        p += n;
    } else if (decpt < n) {
        memcpy(p, digits, decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, digits + decpt, n - decpt);
        p += n - decpt;
    } else {
        memcpy(p, digits, n);
        p += n;
        memset(p, '0', decpt - n);
        p += decpt - n;
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}

/* Write the lines of values, a C-contiguous (rows, cols) array, to out,
 * which holds rows * (25 cols + 1) bytes; return their byte count, or -1 if
 * a column with integer[j] set holds a value that is not whole or not below
 * 2^53 in magnitude.  A line is the reprs of a row joined by commas, then a
 * newline; an integer column holds str(int(v)), so "0" for -0.0. */
int64_t adr_format_rows(const double *values, int64_t rows, int64_t cols,
                        const uint8_t *integer, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < rows; i++) {
        const double *row = values + i * cols;
        for (int64_t j = 0; j < cols; j++) {
            const double v = row[j];
            if (j)
                *p++ = ',';
            if (!integer[j])
                p = put_double(p, v);
            else if (fabs(v) < 0x1p53 && v == (double)(int64_t)v)
                p = put_int(p, (int64_t)v);
            else
                return -1;
        }
        *p++ = '\n';
    }
    return p - out;
}
