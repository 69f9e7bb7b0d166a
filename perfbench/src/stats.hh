/**
 * @file
 * Order statistics of the benchmark report.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/**
 * Regularized incomplete beta function I_x(a, b) for a, b > 0, from
 * its continued fraction (modified Lentz), switching to
 * 1 - I_{1-x}(b, a) where that converges faster.
 */
inline double
incompleteBeta(double x, double a, double b)
{
    if (x <= 0)
        return 0;
    if (x >= 1)
        return 1;
    if (x > (a + 1) / (a + b + 2))
        return 1 - incompleteBeta(1 - x, b, a);
    const double tiny = 1e-300;
    auto clampTiny = [tiny](double v) {
        return std::fabs(v) < tiny ? tiny : v;
    };
    double c = 1;
    double d = 1 / clampTiny(1 - (a + b) * x / (a + 1));
    double h = d;
    for (int m = 1; m <= 300; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((a + m2 - 1) * (a + m2));
        d = 1 / clampTiny(1 + aa * d);
        c = clampTiny(1 + aa / c);
        h *= d * c;
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1));
        d = 1 / clampTiny(1 + aa * d);
        c = clampTiny(1 + aa / c);
        h *= d * c;
        if (std::fabs(d * c - 1) < 1e-15)
            break;
    }
    const double logFront = std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b) + a * std::log(x) +
                            b * std::log1p(-x);
    return std::exp(logFront) * h / a;
}

/**
 * Harrell-Davis estimate of the @p p-th percentile: a weighted mean
 * of the order statistics, the i-th of n weighted by the mass of
 * Beta(q(n+1), (1-q)(n+1)), q = p/100, on [(i-1)/n, i/n].  Where one
 * order statistic (nearest rank) moves with the noise of a single
 * sample, this spreads the estimate over the samples around the
 * percentile; at n = 54, p80 draws 94% of its weight from ranks
 * 39-49, and the 11 samples of ranks 44-54 lie above its centre (rank
 * 43.7).  p <= 0 gives the minimum, p >= 100 the maximum, and an
 * empty sample 0.
 */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    if (p <= 0)
        return v.front();
    if (p >= 100)
        return v.back();
    const double n = static_cast<double>(v.size());
    const double a = p / 100 * (n + 1), b = (1 - p / 100) * (n + 1);
    double est = 0, below = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double upTo =
            incompleteBeta(static_cast<double>(i + 1) / n, a, b);
        est += (upTo - below) * v[i];
        below = upTo;
    }
    return est;
}

/** Conventional median (mean of the two middle samples for even n). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Per-cell medians: @p byPass[k][i] is cell i's time in pass k, and
 * element i of the result the median of cell i over the passes.  A
 * cell percentile taken over these (n = cells) is steadier than one
 * over every cell of every pass, since no single slow pass moves it.
 */
inline std::vector<double>
cellMedians(const std::vector<std::vector<double>> &byPass)
{
    std::vector<double> out;
    for (std::size_t i = 0; !byPass.empty() && i < byPass.front().size();
         ++i) {
        std::vector<double> cell;
        for (const std::vector<double> &pass : byPass)
            cell.push_back(pass.at(i));
        out.push_back(median(std::move(cell)));
    }
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
