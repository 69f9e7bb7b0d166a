/**
 * @file
 * perfbench — the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root DIR [--out DIR] [--rev REV]
 *
 * With --trace 0 it repeats passes of the workload (set-up, then every
 * cell simulated and checked) for about S seconds and reports the
 * end-to-end metrics as medians over passes (cell-time percentiles over
 * the cells' medians across passes).  With --trace 1 it runs one traced
 * pass plus the isolated layer probes, reports the per-layer metrics
 * and the tracing overhead, and writes the spans as a Chrome trace into
 * --out.
 *
 * The last line of stdout is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * carries the host context.  Inputs come from --root (the checkout:
 * the golden sweep cache is read from there at run time).
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "layers.hh"
#include "metrics/metric_set.hh"
#include "obs/timeline.hh"
#include "report.hh"
#include "spans.hh"
#include "stats.hh"

using namespace perfbench;
using namespace wastesim;

namespace
{

#ifndef __OPTIMIZE__
#error "perfbench must be built with optimization (CMAKE_BUILD_TYPE=Release)"
#endif

/** Set-up samples per run: at least setupSamples, then more up to
 *  maxSetupSamples while the top-up has taken under setupTopUpS. */
constexpr std::size_t setupSamples = 7;
constexpr std::size_t maxSetupSamples = 200;
constexpr double setupTopUpS = 1.0;

/** The cell-time percentiles reported (Harrell-Davis estimates over
 *  the per-cell medians). */
constexpr double cellPercentiles[] = {50, 80};

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Count every cell of @p pass and report it on stderr. */
void
tallyPass(const PassRecord &pass, FailTally &tally)
{
    std::fprintf(stderr, "pass: setup %.4f s, wall %.4f s\n", pass.setupS,
                 pass.wallS);
    for (const CellRecord &c : pass.cells) {
        tally.add(c.problems.empty());
        for (const std::string &p : c.problems)
            std::fprintf(stderr, "FAIL %s %s: %s\n", c.result.protocol.c_str(),
                         c.result.benchmark.c_str(), p.c_str());
    }
}

/** Cells of a repeated pass must reproduce the first pass exactly. */
void
checkRepeat(const PassRecord &first, PassRecord &again)
{
    for (std::size_t i = 0; i < again.cells.size(); ++i)
        if (again.cells[i].encoded != first.cells[i].encoded)
            diagnoseMismatch(again.cells[i].result, first.cells[i].encoded,
                             "repeat", again.cells[i].problems);
}

struct Totals
{
    double cycles = 0, flitHops = 0, rawFlitHops = 0;
    double messages = 0, maxLinkFlits = 0;
    double events = 0, loads = 0, stores = 0;
    double l1 = 0, l2 = 0, nacks = 0, recalls = 0, selfInv = 0, bypass = 0;
    double dramReads = 0, dramWrites = 0, rowHits = 0, queuePeak = 0;
    double instances = 0;
    double l1Waste = 0, l1Total = 0, memWaste = 0, memTotal = 0;
    TimeBreakdown time;
};

Totals
totals(const PassRecord &pass)
{
    Totals t;
    for (const CellRecord &c : pass.cells) {
        const RunResult &r = c.result;
        t.cycles += static_cast<double>(r.cycles);
        t.flitHops += r.traffic.total();
        t.rawFlitHops += r.rawFlitHops;
        t.messages += static_cast<double>(r.messages);
        t.maxLinkFlits =
            std::max(t.maxLinkFlits, static_cast<double>(r.maxLinkFlits));
        t.events += static_cast<double>(r.eventsExecuted);
        t.loads += static_cast<double>(c.loads);
        t.stores += static_cast<double>(c.stores);
        t.l1 += static_cast<double>(r.l1Accesses);
        t.l2 += static_cast<double>(r.l2Accesses);
        t.nacks += static_cast<double>(r.nacks);
        t.recalls += static_cast<double>(r.recalls);
        t.selfInv += static_cast<double>(r.selfInvalidations);
        t.bypass += static_cast<double>(r.bypassDirect);
        t.dramReads += static_cast<double>(r.dramReads);
        t.dramWrites += static_cast<double>(r.dramWrites);
        t.rowHits += static_cast<double>(r.dramRowHits);
        for (const auto &ch : r.dramChan)
            t.queuePeak =
                std::max(t.queuePeak, static_cast<double>(ch.queuePeak));
        t.instances += static_cast<double>(c.profInstances);
        t.l1Waste += r.l1Waste.waste();
        t.l1Total += r.l1Waste.total();
        t.memWaste += r.memWaste.waste();
        t.memTotal += r.memWaste.total();
        t.time += r.time;
    }
    return t;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --root DIR [--out DIR] [--rev REV]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, root, out, rev = "unknown";
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (a == "--workload")
            workload = v;
        else if (a == "--root")
            root = v;
        else if (a == "--out")
            out = v;
        else if (a == "--rev")
            rev = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), &end, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), &end);
        else if (a == "--trace" && (v == "0" || v == "1"))
            trace = v == "1";
        else
            return usage();
        if (end && *end != '\0')
            return usage();
    }
    if (argc % 2 != 1 || root.empty() || trace < 0 || !(seconds > 0))
        return usage();

    WorkloadSpec spec;
    if (!makeWorkloadSpec(workload, seed, spec)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     workload.c_str());
        return usage();
    }

    GoldenCells golden;
    bool have_golden = false;
    if (spec.golden) {
        const std::string path =
            root + "/tests/golden/wastesim_sweep_4x4.cache";
        std::ifstream in(path, std::ios::binary);
        std::stringstream text;
        text << in.rdbuf();
        std::string err;
        have_golden = in && golden.parse(text.str(), err);
        if (!have_golden)
            std::fprintf(stderr, "perfbench: golden cache %s: %s\n",
                         path.c_str(), in ? err.c_str() : "unreadable");
    }
    const GoldenCells *goldenPtr = have_golden ? &golden : nullptr;

    FailTally tally;
    Metrics m;
    SpanRecorder rec(trace == 1);
    std::vector<PassRecord> passes;
    std::vector<double> setups;
    const auto t_run = std::chrono::steady_clock::now();

    if (trace == 0) {
        // Whole passes while the next one is expected to fit in S.
        do {
            passes.push_back(runPass(spec, goldenPtr, rec, -1));
            setups.push_back(passes.back().setupS);
            if (passes.size() > 1)
                checkRepeat(passes.front(), passes.back());
            tallyPass(passes.back(), tally);
        } while (secondsSince(t_run) + passes.back().setupS +
                     passes.back().wallS <=
                 seconds);
        // Top up set-up samples: at least setupSamples, and more while
        // they are cheap, so a millisecond set-up still has a stable
        // median.
        const auto t_setup = std::chrono::steady_clock::now();
        while (setups.size() < setupSamples ||
               (setups.size() < maxSetupSamples &&
                secondsSince(t_setup) < setupTopUpS))
            setups.push_back(runSetup(spec));

        // Cell percentiles are taken over each cell's median across
        // the passes (n = cells, printed in the context line).
        std::vector<double> walls, rates;
        std::vector<std::vector<double>> cellTimes;
        for (const PassRecord &p : passes) {
            const Totals t = totals(p);
            walls.push_back(p.wallS);
            rates.push_back((t.loads + t.stores) / p.wallS);
            cellTimes.emplace_back();
            for (const CellRecord &c : p.cells)
                cellTimes.back().push_back(c.seconds);
        }
        const std::vector<double> perCell = cellMedians(cellTimes);
        const Totals t = totals(passes.front());

        m.add("wall_s", median(walls));
        m.add("setup_s", median(setups));
        m.add("ops_per_s", median(rates));
        for (double pct : cellPercentiles)
            m.add("cell_s.p" + std::to_string(static_cast<int>(pct)),
                  percentile(perCell, pct));
        m.add("peak_rss_mb", peakRssMb());
        m.add("sim_cycles", t.cycles);
        m.add("sim_flit_hops", t.flitHops);
        m.add("pass_frac", 1.0 - tally.frac());
    } else {
        // One traced pass.  Its wall time less an untraced pass's
        // would be the tracing overhead, but host noise between two
        // passes is far larger than the microseconds the spans cost;
        // the overhead is reported as spans x the measured cost of one.
        passes.push_back(runPass(spec, goldenPtr, rec, -1));
        tallyPass(passes.back(), tally);
        setups = {passes[0].setupS};

        // Isolated layer probes, sized to ~0.1-0.5 s each.
        struct Probe
        {
            const char *span;
            const char *metric;
            LayerTiming (*run)(const WorkloadSpec &, std::uint64_t);
        };
        static const Probe probes[] = {
            {"layer.event_queue", "sim.eq_events_per_s",
             [](const WorkloadSpec &, std::uint64_t) {
                 return eventQueueEventsPerSec(4'000'000);
             }},
            {"layer.network", "noc.send_ns",
             [](const WorkloadSpec &s, std::uint64_t sd) {
                 return networkSendNs(s.params.topo, 1'000'000, sd);
             }},
            {"layer.dram", "dram.enqueue_ns",
             [](const WorkloadSpec &, std::uint64_t sd) {
                 return dramEnqueueNs(1'000'000, sd);
             }},
            {"layer.word_profiler", "profile.word_ns",
             [](const WorkloadSpec &, std::uint64_t sd) {
                 return wordProfilerNs(100'000, sd);
             }},
            {"layer.mem_profiler", "profile.mem_ns",
             [](const WorkloadSpec &, std::uint64_t sd) {
                 return memProfilerNs(1'000'000, sd);
             }},
        };
        std::vector<std::pair<const Probe *, double>> layerValues;
        for (const Probe &d : probes) {
            LayerTiming lt;
            {
                ScopedSpan s(rec, d.span, -1, 0);
                lt = d.run(spec, seed);
            }
            tally.add(lt.ok);
            if (!lt.ok)
                std::fprintf(stderr, "FAIL %s: %s\n", d.span,
                             lt.problem.c_str());
            layerValues.emplace_back(&d, lt.value);
        }

        const PassRecord &p = passes[0];
        const Totals t = totals(p);
        const std::vector<Span> spans = rec.spans();
        const auto self = selfTimeByName(spans);
        auto selfOf = [&](const char *name) {
            auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second;
        };
        const double runS = selfOf("system.run");

        m.add("trace.overhead_s", static_cast<double>(spans.size()) *
                                      spanCostSeconds(100'000));
        m.add("trace.spans", static_cast<double>(spans.size()));
        m.add("workload.build_s", selfOf("workload.build"));
        m.add("workload.ops", static_cast<double>(p.workloadOps));
        m.add("workload.op_bytes", static_cast<double>(p.workloadBytes));
        m.add("system.build_s", selfOf("system.build"));
        m.add("system.run_s", runS);
        m.add("system.check_s", selfOf("system.check"));
        m.add("metrics.encode_s", selfOf("metrics.encode"));
        m.add("sim.events", t.events);
        m.add("sim.events_per_op", ratio(t.events, t.loads + t.stores));
        m.add("sim.ns_per_event", ratio(runS * 1e9, t.events));
        m.add("noc.messages", t.messages);
        m.add("noc.flit_hops_raw", t.rawFlitHops);
        m.add("noc.max_link_flits", t.maxLinkFlits);
        m.add("protocol.l1_accesses", t.l1);
        m.add("protocol.l2_accesses", t.l2);
        m.add("protocol.nacks", t.nacks);
        m.add("protocol.recalls", t.recalls);
        m.add("protocol.self_invalidations", t.selfInv);
        m.add("protocol.bypass_direct", t.bypass);
        m.add("protocol.nacks_per_store", ratio(t.nacks, t.stores));
        m.add("dram.reads", t.dramReads);
        m.add("dram.writes", t.dramWrites);
        // Row hits count the whole run, accesses only the measured
        // window; like the energy model, cap hits at the accesses.
        const double accesses = t.dramReads + t.dramWrites;
        m.add("dram.row_hit_frac",
              ratio(std::min(t.rowHits, accesses), accesses));
        m.add("dram.queue_peak", t.queuePeak);
        m.add("profile.instances", t.instances);
        m.add("profile.l1_waste_frac", ratio(t.l1Waste, t.l1Total));
        m.add("profile.mem_waste_frac", ratio(t.memWaste, t.memTotal));
        const double total = t.time.total();
        m.add("core.busy_frac", ratio(t.time.busy, total));
        m.add("core.mem_frac",
              ratio(t.time.onChip + t.time.toMc + t.time.mem + t.time.fromMc,
                    total));
        m.add("core.sync_frac", ratio(t.time.sync, total));
        for (const auto &[d, v] : layerValues)
            m.add(d->metric, v);

        if (!out.empty()) {
            const std::string path = out + "/trace-" + spec.name + "-" +
                                     std::to_string(seed) + ".json";
            Timeline tl;
            addToTimeline(spans, tl);
            if (!tl.save(path))
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             path.c_str());
        }
    }

    std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"passes\": %zu, "
                "\"setup_samples\": %zu, \"cells\": %zu, "

                "\"cell_threads\": %u, \"host_cores\": %u, "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"optimized\": true, \"rev\": \"%s\"}}\n",
                spec.name.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace, passes.size(), setups.size(),
                spec.cells.size(),
                spec.threads,
                std::thread::hardware_concurrency(),
                jsonEscape(compilerName()).c_str(), PERFBENCH_BUILD_TYPE,
                jsonEscape(rev).c_str());
    std::vector<std::string> expected;
    for (const MetricDef &d :
         trace == 0 ? endToEndMetrics() : perLayerMetrics())
        expected.push_back(d.name);
    if (m.names() != expected) {
        std::fprintf(stderr, "perfbench: metric set differs from the "
                             "declared list\n");
        return 2;
    }
    std::printf("%s\n", resultJson(tally.attempted, tally.failed, m).c_str());
    return 0;
}
