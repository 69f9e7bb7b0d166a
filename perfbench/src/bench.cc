#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <numeric>
#include <sstream>
#include <thread>

#include "fuzz/invariants.hh"
#include "metrics/run_result_schema.hh"
#include "trace/synthetic.hh"

namespace perfbench
{

using namespace wastesim;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

std::string
cellName(const std::string &protocol, const std::string &benchmark)
{
    return protocol + " " + benchmark;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"paper-grid",
                                                   "store-stream"};
    return names;
}

bool
makeWorkloadSpec(const std::string &name, std::uint64_t seed,
                 WorkloadSpec &out)
{
    WorkloadSpec s;
    s.name = name;
    s.params = SimParams::scaled();
    if (name == "paper-grid") {
        // The 9 x 6 sweep every figure comes from; inputs are the
        // fixed Table-4.2 generators, checked against the golden cache.
        for (BenchmarkName b : allBenchmarks) {
            const Topology topo = s.params.topo;
            s.generators.push_back(
                [b, topo] { return makeBenchmark(b, 1, topo); });
            for (ProtocolName p : allProtocols)
                s.cells.push_back({p, s.generators.size() - 1});
        }
        // Two cell threads: on a 4-vCPU VM shared with other tenants,
        // four threads ran the grid faster but spread wider from run to
        // run than two, and peaked at 740 MB of RSS instead of 513 MB.
        s.threads = 2;
        s.golden = true;
    } else if (name == "store-stream") {
        // Every core stores once per line through a private 32 KB
        // arena; the arenas together fill the 512 KB of L2, which is
        // what drives DeNovo's set-full NACK retry path.  DValidateL2
        // writes without fetching at the L2 and is the control.
        SynthParams sp;
        sp.seed = seed;
        sp.pattern = SynthParams::Pattern::Stride;
        sp.strideWords = 16;
        sp.readFraction = 0;
        sp.sharedFraction = 0;
        sp.opsPerCore = 512;
        sp.phases = 1;
        sp.privateBytes = 32 * 1024;
        const Topology topo = s.params.topo;
        s.generators.push_back(
            [sp, topo] { return makeSynthetic(sp, topo); });
        for (ProtocolName p : {ProtocolName::MESI, ProtocolName::DeNovo,
                               ProtocolName::DValidateL2})
            s.cells.push_back({p, 0});
        s.threads = 2;
    } else {
        return false;
    }
    s.threads = std::min(s.threads,
                         std::max(1u, std::thread::hardware_concurrency()));
    out = std::move(s);
    return true;
}

bool
GoldenCells::parse(const std::string &text, std::string &err)
{
    blocks_.clear();
    std::size_t pos = 0;
    auto line = [&](std::string &l) {
        if (pos >= text.size())
            return false;
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        l = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    };

    std::string l;
    if (!line(l) || l.rfind("wastesim-cells-v", 0) != 0) {
        err = "not a wastesim cell cache";
        return false;
    }
    unsigned long cells = 0;
    if (!line(l) || std::sscanf(l.c_str(), "%lu", &cells) != 1) {
        err = "missing cell count";
        return false;
    }
    for (unsigned long i = 0; i < cells; ++i) {
        std::string key, len_line;
        unsigned long len = 0;
        if (!line(key) || !line(len_line) ||
            std::sscanf(len_line.c_str(), "= %lu", &len) != 1 ||
            len > text.size() - std::min(pos, text.size())) {
            err = "truncated cell " + std::to_string(i);
            return false;
        }
        std::string block = text.substr(pos, len);
        pos += len;
        const std::string head = block.substr(0, block.find('\n'));
        if (!blocks_.emplace(head, std::move(block)).second) {
            err = "duplicate cell '" + head + "'";
            return false;
        }
    }
    return true;
}

const std::string *
GoldenCells::find(const std::string &protocol,
                  const std::string &benchmark) const
{
    auto it = blocks_.find(cellName(protocol, benchmark));
    return it == blocks_.end() ? nullptr : &it->second;
}

void
GoldenCells::set(const std::string &protocol, const std::string &benchmark,
                 std::string block)
{
    blocks_[cellName(protocol, benchmark)] = std::move(block);
}

void
checkInvariants(const System &sys, const Workload &wl, const RunResult &r,
                std::vector<std::string> &problems)
{
    InvariantReport rep;
    checkResultInvariants(r, rep);
    checkSystemInvariants(sys, wl, r, rep);
    for (const Violation &v : rep.violations)
        problems.push_back(v.describe());
}

void
checkGolden(const RunResult &r, const std::string &encoded,
            const GoldenCells &golden, std::vector<std::string> &problems)
{
    const std::string *block = golden.find(r.protocol, r.benchmark);
    if (!block) {
        problems.push_back("golden: no cell " +
                           cellName(r.protocol, r.benchmark));
        return;
    }
    if (encoded != *block)
        diagnoseMismatch(r, *block, "golden", problems);
}

void
diagnoseMismatch(const RunResult &r, const std::string &reference,
                 const char *what, std::vector<std::string> &problems)
{
    RunResult ref;
    std::istringstream is(reference);
    InvariantReport rep;
    if (readRunResultBlock(is, ref))
        compareResults(ref, r, rep);
    if (rep.ok())
        problems.push_back(std::string(what) +
                           ": serialized cell differs for " +
                           cellName(r.protocol, r.benchmark));
    for (const Violation &v : rep.violations)
        problems.push_back(std::string(what) + ": " + v.describe());
}

namespace
{

/** The inputs and Systems of one pass; Systems die before workloads. */
struct SetUp
{
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<std::unique_ptr<System>> systems;
};

SetUp
setUp(const WorkloadSpec &spec, SpanRecorder &rec, int parent)
{
    SetUp u;
    ScopedSpan setup(rec, "setup", parent, 0);
    for (const auto &generate : spec.generators) {
        ScopedSpan s(rec, "workload.build", setup.id(), 0);
        u.workloads.push_back(generate());
    }
    for (const CellSpec &c : spec.cells) {
        ScopedSpan s(rec, "system.build", setup.id(), 0);
        u.systems.push_back(std::make_unique<System>(
            c.protocol, *u.workloads[c.workload], spec.params));
    }
    return u;
}

} // namespace

PassRecord
runPass(const WorkloadSpec &spec, const GoldenCells *golden,
        SpanRecorder &rec, int parent)
{
    PassRecord p;
    ScopedSpan pass(rec, "pass", parent, 0);

    const auto t_setup = std::chrono::steady_clock::now();
    SetUp u = setUp(spec, rec, pass.id());
    p.setupS = secondsSince(t_setup);
    const auto &wls = u.workloads;
    auto &systems = u.systems;

    std::vector<std::uint64_t> loads(wls.size()), stores(wls.size());
    for (std::size_t w = 0; w < wls.size(); ++w) {
        workloadOpCounts(*wls[w], loads[w], stores[w]);
        p.workloadOps += wls[w]->totalOps();
        p.workloadBytes += wls[w]->totalOps() * sizeof(Op);
    }

    // Longest inputs first, so the last cells to start are short ones.
    const std::size_t n = spec.cells.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return wls[spec.cells[a].workload]->totalOps() >
                                wls[spec.cells[b].workload]->totalOps();
                     });

    p.cells.resize(n);
    std::atomic<std::size_t> next{0};
    const auto t_sim = std::chrono::steady_clock::now();
    {
        ScopedSpan sim(rec, "simulate", pass.id(), 0);
        auto worker = [&](unsigned lane) {
            for (std::size_t k; (k = next.fetch_add(1)) < n;) {
                const std::size_t i = order[k];
                const Workload &wl = *wls[spec.cells[i].workload];
                CellRecord &cr = p.cells[i];
                const auto t_cell = std::chrono::steady_clock::now();
                ScopedSpan cell(rec, "cell", sim.id(), lane);
                try {
                    {
                        ScopedSpan s(rec, "system.run", cell.id(), lane);
                        cr.result = systems[i]->run();
                    }
                    {
                        ScopedSpan s(rec, "system.check", cell.id(), lane);
                        checkInvariants(*systems[i], wl, cr.result,
                                        cr.problems);
                    }
                    {
                        ScopedSpan s(rec, "metrics.encode", cell.id(), lane);
                        cr.encoded = serializeResult(cr.result);
                        if (spec.golden && golden)
                            checkGolden(cr.result, cr.encoded, *golden,
                                        cr.problems);
                        else if (spec.golden)
                            cr.problems.push_back("golden cache missing");
                    }
                } catch (const std::exception &e) {
                    cr.problems.push_back(std::string("exception: ") +
                                          e.what());
                }
                cr.loads = loads[spec.cells[i].workload];
                cr.stores = stores[spec.cells[i].workload];
                cr.profInstances = systems[i]->memProfiler().numInstances();
                cr.seconds = secondsSince(t_cell);
                // A finished System holds its profiler arenas; release
                // them now, as a sweep does, so memory tracks the
                // cells in flight rather than the whole grid.
                systems[i].reset();
            }
        };
        std::vector<std::thread> pool;
        for (unsigned t = 1; t < spec.threads; ++t)
            pool.emplace_back(worker, t + 1);
        worker(1);
        for (std::thread &t : pool)
            t.join();
    }
    p.wallS = secondsSince(t_sim);
    return p;
}

double
runSetup(const WorkloadSpec &spec)
{
    SpanRecorder off(false);
    const auto t0 = std::chrono::steady_clock::now();
    const SetUp u = setUp(spec, off, -1);
    return secondsSince(t0);
}

} // namespace perfbench
