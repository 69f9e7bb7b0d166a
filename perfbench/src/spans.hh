/**
 * @file
 * In-memory host-time spans around the benchmark's calls into the
 * simulator's layers, their self times, and their export as a Chrome
 * trace through the simulator's own wastesim::Timeline.
 *
 * Spans are kept in memory and written once when the run ends, so
 * recording costs one uncontended lock per span and no I/O.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timeline.hh"

namespace perfbench
{

/** One closed (or still open) span; times in seconds. */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;    //!< index of the enclosing span, -1 for a root
    unsigned lane = 0;  //!< host thread lane (trace-viewer tid)
};

/** Thread-safe span store; a disabled recorder records nothing. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = false);

    /** Open a span now; returns its id, or -1 when disabled. */
    int open(const char *name, int parent, unsigned lane);

    /** Close span @p id now (no-op for -1). */
    void close(int id);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    const bool enabled_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_; //!< guards spans_
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, int parent,
               unsigned lane)
        : rec_(rec), id_(rec.open(name, parent, lane))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int id_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover.  Children on other lanes
 * may overlap each other; the covered part is the measure of the
 * union of their intervals, clipped to the parent's.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Self time summed per span name. */
std::map<std::string, double> selfTimeByName(const std::vector<Span> &spans);

/**
 * Host seconds one span costs a recorder: an open and a close on an
 * enabled recorder, averaged over @p n spans.
 */
double spanCostSeconds(std::size_t n);

/** Add @p spans to @p tl as complete events, one named tid per lane. */
void addToTimeline(const std::vector<Span> &spans, wastesim::Timeline &tl);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
