#include "spans.hh"

#include <algorithm>
#include <set>
#include <utility>

namespace perfbench
{

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

int
SpanRecorder::open(const char *name, int parent, unsigned lane)
{
    if (!enabled_)
        return -1;
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, lane});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanRecorder::close(int id)
{
    if (id < 0)
        return;
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start, hi = spans[i].end;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> by;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by[spans[i].name] += self[i];
    return by;
}

double
spanCostSeconds(std::size_t n)
{
    SpanRecorder rec(true);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i)
        rec.close(rec.open("system.check", -1, 0));
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return n ? s / static_cast<double>(n) : 0;
}

void
addToTimeline(const std::vector<Span> &spans, wastesim::Timeline &tl)
{
    std::set<unsigned> lanes;
    for (const Span &s : spans)
        lanes.insert(s.lane);
    for (unsigned lane : lanes)
        tl.threadName(1, lane,
                      lane == 0 ? "main" : "worker " + std::to_string(lane));
    for (const Span &s : spans)
        tl.complete("perfbench", s.name, s.start * 1e6,
                    (s.end - s.start) * 1e6, 1, s.lane);
}

} // namespace perfbench
