/* The model step of enkpf.sweq in plain C, with no Python C-API.

   enkpf_step advances the fields of one ensemble, a (3, rows, n + 2)
   buffer of h, u and r with each row between two halo columns that hold
   its wrapped edges, by one step into a buffer of the same layout. Per
   element it makes the operations of sweq._bind_step's numpy step in
   their order, divisions included, so the bits are the same when the
   compiler neither fuses a multiply and an add (-ffp-contract=off) nor
   reorders arithmetic (no -ffast-math); enkpf/ckernel.py builds it so. It then adds the step's bumps to
   u one at a time in arrival order, wraps every row, and writes the new
   max u, min u and max h to stats for the next step's CFL bound. It
   returns 1 when a new value is not finite, else 0; the caller then
   words the error. work holds 2 (n + 2) doubles. */

#include <math.h>
#include <stddef.h>

enum { DT, TWO_DX, DX2, GRAVITY, H_CLOUD, H_RAIN, PHI_CLOUD, RAIN_GEOPOTENTIAL,
       DIFF_H, DIFF_U, DIFF_R, ALPHA_RAIN, NEG_BETA_RAIN };

/* The selects below are written without branches (& and | on comparisons)
   so that the compiler may vectorize the loops; each lane still makes the
   same operations on the same doubles. */
int enkpf_step(const double *c, ptrdiff_t rows, ptrdiff_t n, double *restrict work,
               const double *restrict src, double *restrict dst,
               const ptrdiff_t *bump_rows, const double *restrict bumps, ptrdiff_t n_bumps,
               double *stats)
{
    const double dt = c[DT], two_dx = c[TWO_DX], dx2 = c[DX2], gravity = c[GRAVITY],
                 h_cloud = c[H_CLOUD], h_rain = c[H_RAIN], phi_cloud = c[PHI_CLOUD],
                 rain_geopotential = c[RAIN_GEOPOTENTIAL], diff_h = c[DIFF_H],
                 diff_u = c[DIFF_U], diff_r = c[DIFF_R], alpha_rain = c[ALPHA_RAIN],
                 neg_beta_rain = c[NEG_BETA_RAIN];
    const ptrdiff_t m = n + 2, field = rows * m;
    double *restrict phi = work, *restrict uh = work + m;
    for (ptrdiff_t row = 0; row < rows; row++) {
        const double *h = src + row * m, *u = h + field, *r = u + field;
        double *new_h = dst + row * m, *new_u = new_h + field, *new_r = new_u + field;
        /* phi = where(h > h_cloud, phi_cloud, gravity * h) + rain_geopotential * r,
           and u * h, on the halos too */
        for (ptrdiff_t i = 0; i < m; i++) {
            double gh = h[i] * gravity;
            phi[i] = (h[i] > h_cloud ? phi_cloud : gh) + r[i] * rain_geopotential;
            uh[i] = u[i] * h[i];
        }
        for (ptrdiff_t i = 1; i <= n; i++) {
            double dudx = (u[i + 1] - u[i - 1]) / two_dx;
            double drdx = (r[i + 1] - r[i - 1]) / two_dx;
            double dphidx = (phi[i + 1] - phi[i - 1]) / two_dx;
            double duhdx = (uh[i + 1] - uh[i - 1]) / two_dx;
            /* diff_f * ((f_p - 2 f + f_m) / dx2) */
            double th = (h[i + 1] - h[i] * 2.0 + h[i - 1]) / dx2 * diff_h;
            double tu = (u[i + 1] - u[i] * 2.0 + u[i - 1]) / dx2 * diff_u;
            double tr = (r[i + 1] - r[i] * 2.0 + r[i - 1]) / dx2 * diff_r;
            tu = tu + (-u[i] * dudx - dphidx);
            th = th - duhdx;
            double produced = dudx * neg_beta_rain;
            double production = (h[i] > h_rain) & (dudx < 0.0) ? produced : 0.0;
            tr = tr + -u[i] * drdx;
            tr = tr - r[i] * alpha_rain;
            tr = tr + production;
            new_h[i] = h[i] + th * dt;
            new_u[i] = u[i] + tu * dt;
            /* np.maximum(r, 0.0): NaN stays, -0.0 becomes +0.0 */
            double nr = r[i] + tr * dt;
            new_r[i] = (nr > 0.0) | (nr != nr) ? nr : 0.0;
        }
    }
    for (ptrdiff_t b = 0; b < n_bumps; b++) {
        double *new_u = dst + field + bump_rows[b] * m + 1;
        const double *bump = bumps + b * n;
        for (ptrdiff_t i = 0; i < n; i++)
            new_u[i] = new_u[i] + bump[i];
    }
    /* x - x is 0 for finite x and NaN for inf and NaN */
    int bad = 0;
    for (ptrdiff_t row = 0; row < 3 * rows; row++) {
        double *f = dst + row * m;
        for (ptrdiff_t i = 1; i <= n; i++)
            bad |= !(f[i] - f[i] == 0.0);
        f[0] = f[n];
        f[n + 1] = f[1];
    }
    double max_u = -INFINITY, min_u = INFINITY, max_h = -INFINITY;
    for (ptrdiff_t i = 0; i < field; i++) {
        double h = dst[i], u = dst[field + i];
        max_h = h > max_h ? h : max_h;
        max_u = u > max_u ? u : max_u;
        min_u = u < min_u ? u : min_u;
    }
    stats[0] = max_u;
    stats[1] = min_u;
    stats[2] = max_h;
    return bad;
}
