/* The compiled part of adr_lab: the transport update of one block of
 * x-planes of the 3-D upwind step, and the CSV formatter of float64 rows.
 *
 * adr_lab._native builds this file with -ffp-contract=off, so every
 * floating-point operation of the step is one IEEE operation, rounded as
 * numpy rounds it, and the terms are grouped as in the formula of
 * solver3d's docstring read left to right.  Any change of grouping changes
 * output bytes.  The formatter does integer arithmetic only.
 */

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
    char buf[20], *digits = buf + sizeof buf;
    for (; m >= 10; m /= 100)
        digits = memcpy(digits - 2, PAIRS + 2 * (m % 100), 2);
    if (m)
        *--digits = (char)('0' + m);
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

/* Write rows lines to out and return their byte count.  heads holds the
 * rows heads of the lines in size bytes, one after another with a newline
 * between each two: rows - 1 newlines in all.  Line i is head i, then the
 * reprs of row i of values, a C-contiguous (rows, cols) array, joined by
 * commas, then a newline.  out holds size + rows * (25 cols + 1) bytes.
 */
int64_t adr_format_rows(const double *values, int64_t rows, int64_t cols,
                        const char *heads, int64_t size, char *out)
{
    const char *end = heads + size;
    char *p = out;
    for (int64_t i = 0; i < rows; i++) {
        const char *stop = i + 1 < rows ? memchr(heads, '\n', (size_t)(end - heads)) : end;
        memcpy(p, heads, (size_t)(stop - heads));
        p += stop - heads;
        heads = stop + 1;
        const double *row = values + i * cols;
        for (int64_t j = 0; j < cols; j++) {
            if (j)
                *p++ = ',';
            p = put_double(p, row[j]);
        }
        *p++ = '\n';
    }
    return p - out;
}
