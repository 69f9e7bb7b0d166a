#include "report.hh"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"ops_per_s", "1/s"},
        {"cell_s.p50", "s"},
        {"cell_s.p80", "s"},
        {"peak_rss_mb", "MB"},
        {"sim_cycles", "cycles"},
        {"sim_flit_hops", "flit-hops"},
        {"pass_frac", "fraction"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"trace.overhead_s", "s"},
        {"trace.spans", "count"},
        {"workload.build_s", "s"},
        {"workload.ops", "count"},
        {"workload.op_bytes", "B"},
        {"system.build_s", "s"},
        {"system.run_s", "s"},
        {"system.check_s", "s"},
        {"metrics.encode_s", "s"},
        {"sim.events", "count"},
        {"sim.events_per_op", "count"},
        {"sim.ns_per_event", "ns"},
        {"noc.messages", "count"},
        {"noc.flit_hops_raw", "flit-hops"},
        {"noc.max_link_flits", "flits"},
        {"protocol.l1_accesses", "count"},
        {"protocol.l2_accesses", "count"},
        {"protocol.nacks", "count"},
        {"protocol.recalls", "count"},
        {"protocol.self_invalidations", "count"},
        {"protocol.bypass_direct", "count"},
        {"protocol.nacks_per_store", "ratio"},
        {"dram.reads", "count"},
        {"dram.writes", "count"},
        {"dram.row_hit_frac", "fraction"},
        {"dram.queue_peak", "count"},
        {"profile.instances", "count"},
        {"profile.l1_waste_frac", "fraction"},
        {"profile.mem_waste_frac", "fraction"},
        {"core.busy_frac", "fraction"},
        {"core.mem_frac", "fraction"},
        {"core.sync_frac", "fraction"},
        {"sim.eq_events_per_s", "1/s"},
        {"noc.send_ns", "ns"},
        {"dram.enqueue_ns", "ns"},
        {"profile.word_ns", "ns"},
        {"profile.mem_ns", "ns"},
    };
    return defs;
}

void
Metrics::add(const std::string &name, double value)
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs)
            if (d.name == name) {
                entries_.push_back({d, std::isfinite(value) ? value : 0});
                return;
            }
    throw std::invalid_argument("undeclared metric " + name);
}

std::vector<std::string>
Metrics::names() const
{
    std::vector<std::string> out;
    for (const Entry &e : entries_)
        out.push_back(e.def.name);
    return out;
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", entries_[i].value);
        out += (i ? ", \"" : "\"") + entries_[i].def.name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               entries_[i].def.unit + "\"}";
    }
    return out + "}";
}

std::string
resultJson(std::uint64_t attempted, std::uint64_t failed, const Metrics &m)
{
    return "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"metrics\": " + m.json() + "}";
}

} // namespace perfbench
