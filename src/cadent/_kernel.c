/* The training loop of cadent.kernels.run_training.

   One function, `train`, runs every episode of one training job over flat
   buffers that run_training allocates and checks: the product tables
   (indexed p * n_actions + a, or p), the knowledge (q * n_q + q2 and
   q * n_actions + a), the outputs, and greedy[p], each product row's
   greedy action (all zero on entry, as Q is). The statements are those of
   the update rule in kernels.py's docstring, in the same order, over
   doubles and 32-bit words, so a run's outputs are the same bits wherever
   the library is built with -ffp-contract=off: a fused multiply-add would
   round once where these statements round twice.

   Returns 0, or 1 when an update is not finite (the run diverged). */

#include <math.h>
#include <stdint.h>

static int64_t argmax(const double *values, int64_t n)
{
    int64_t a = 0;
    double best = values[0];
    for (int64_t b = 1; b < n; b++) {
        if (values[b] > best) {
            best = values[b];
            a = b;
        }
    }
    return a;
}

int train(const int32_t *next_row, const double *reward,
          const uint8_t *stop, const uint8_t *dead, const int64_t *q_of,
          const uint8_t *accepting, const double *q_ad,
          const uint8_t *q_ad_known, const double *pi_teacher,
          const uint8_t *pi_known, double *q, double *vol, int64_t *counts,
          double *ep_reward, int64_t *ep_steps, uint8_t *ep_accept,
          int64_t *soft_steps, int64_t soft_cap, int32_t *greedy,
          uint32_t *rng, int64_t *tallies, double *max_abs,
          int64_t n_q, int64_t n_actions, int64_t start, int64_t episodes,
          int64_t max_steps, double alpha, double gamma, double eps,
          double eps_end, double eps_decay, double eta, double gate_k,
          double theta, double lam_ad, double lam_pd, double omega_fixed,
          double bound, int use_gate, int use_guidance)
{
    const double inv32 = 0x1p-32;
    const int64_t last = max_steps - 1;
    uint32_t r0 = rng[0], r1 = rng[1], r2 = rng[2], r3 = rng[3];
    int64_t n_soft = 0, novel = 0;
    double max_abs_dq = 0.0;
    int64_t first_step = 0;  /* global index of the episode's first step */
    for (int64_t ep = 0; ep < episodes; ep++) {
        double e = eps > eps_end ? eps : eps_end;
        int64_t p = start;
        double total = 0.0;
        int64_t t;
        for (t = 0;; t++) {
            int64_t row = p * n_actions;
            /* action choice: the greedy action b, unless one draw says
               explore and one more picks the action */
            int64_t b = greedy[p];
            int64_t a = b;
            if (e > 0.0) {
                uint32_t x = r0 ^ (r0 << 11);
                r0 = r1; r1 = r2; r2 = r3;
                r3 = (r3 ^ (r3 >> 19)) ^ (x ^ (x >> 8));
                if ((double)r3 * inv32 < e) {
                    x = r0 ^ (r0 << 11);
                    r0 = r1; r1 = r2; r2 = r3;
                    r3 = (r3 ^ (r3 >> 19)) ^ (x ^ (x >> 8));
                    a = (int64_t)(((double)r3 * inv32) * (double)n_actions);
                }
            }
            int64_t pa = row + a;
            int64_t p2 = next_row[pa];
            double r = reward[pa];
            int done = stop[p2] || t == last;
            double boot = done ? 0.0
                               : gamma * q[p2 * n_actions + greedy[p2]];
            double old = q[pa];
            double d_student = r + boot - old;
            double dq;
            if (use_guidance) {
                double om;
                if (use_gate) {
                    /* the gate 1 / (1 + exp(k (v - theta))), through the
                       exp of a non-positive argument so it cannot
                       overflow */
                    double x = gate_k * (vol[pa] - theta);
                    if (x > 0.0) {
                        double z = exp(-x);
                        om = z / (1.0 + z);
                    } else {
                        om = 1.0 / (1.0 + exp(x));
                    }
                } else {
                    om = omega_fixed;
                }
                int64_t qq = q_of[p];
                int64_t q2 = q_of[p2];
                double r_ad = 0.0;
                if (q2 != qq) {
                    if (q_ad_known[qq * n_q + q2])
                        r_ad = lam_ad * q_ad[qq * n_q + q2];
                    else
                        novel++;
                }
                double g = 0.0;
                /* g_PD pays moves within an automaton state: an edge
                   crossing earns r_AD instead; a wall bump (p2 == p) would
                   pay standing still; a weight lambda_pd of 0 pays
                   nothing. The pull is the temperature-1 softmax of the
                   row at a, max-subtracted and summed in action order, as
                   kernels.softmax_policy computes it */
                if (lam_pd != 0.0 && pi_known[qq] && q2 == qq && p2 != p) {
                    double m = q[row + b];
                    double tot = 0.0, pa_exp = 0.0;
                    for (int64_t c = 0; c < n_actions; c++) {
                        double ec = exp(q[row + c] - m);
                        tot += ec;
                        if (c == a)
                            pa_exp = ec;
                    }
                    g = lam_pd * (pi_teacher[qq * n_actions + a]
                                  - pa_exp / tot);
                }
                /* omega * d_student + (1 - omega) * (d_student + r_AD + g):
                   the teacher terms shape the reward of the teacher's TD
                   error (Ng, Harada & Russell, ICML 1999); without them
                   this is Q-learning */
                dq = d_student + (1.0 - om) * (r_ad + g);
            } else {
                dq = d_student;
            }
            if (!isfinite(dq))
                return 1;
            if (use_gate)
                vol[pa] = (1.0 - eta) * vol[pa] + eta * fabs(dq);
            double adq = fabs(dq);
            if (adq > max_abs_dq)
                max_abs_dq = adq;
            if (adq > bound) {
                if (n_soft < soft_cap)
                    soft_steps[n_soft] = first_step + t;
                n_soft++;
            }
            double new = old + alpha * dq;
            q[pa] = new;
            /* keep greedy[p] current: only q[pa] moved, so the row needs a
               rescan only when its greedy entry fell; ties go to the lower
               a */
            if (a == b) {
                if (new < old)
                    greedy[p] = (int32_t)argmax(q + row, n_actions);
            } else if (a < b) {
                if (new >= q[row + b])
                    greedy[p] = (int32_t)a;
            } else if (new > q[row + b]) {
                greedy[p] = (int32_t)a;
            }
            counts[pa]++;
            total += r;
            p = p2;
            if (done)  /* always by the last step, t == max_steps - 1 */
                break;
        }
        ep_reward[ep] = total;
        ep_steps[ep] = t + 1;
        ep_accept[ep] = accepting[q_of[p]] && !dead[p];
        first_step += t + 1;
        eps = eps * eps_decay;
    }
    rng[0] = r0; rng[1] = r1; rng[2] = r2; rng[3] = r3;
    tallies[0] = novel;
    tallies[1] = n_soft;
    *max_abs = max_abs_dq;
    return 0;
}
