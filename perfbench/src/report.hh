/**
 * @file
 * The benchmark's metric names and the result object it prints.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** A declared metric (mirrors an entry of BENCHMARK.json). */
struct MetricDef
{
    std::string name, unit;
};

/** End-to-end metrics, reported by every untraced run, in order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics, reported by every traced run, in order. */
const std::vector<MetricDef> &perLayerMetrics();

/** Named metrics in report order. */
class Metrics
{
  public:
    /** Append declared metric @p name (std::invalid_argument if it is
     *  undeclared); non-finite values are reported as 0. */
    void add(const std::string &name, double value);

    /** Names added so far, in order. */
    std::vector<std::string> names() const;

    /** {"name": {"value": v, "unit": "u"}, ...} with full precision. */
    std::string json() const;

  private:
    struct Entry
    {
        MetricDef def;
        double value;
    };
    std::vector<Entry> entries_;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(std::uint64_t attempted, std::uint64_t failed,
                       const Metrics &m);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
