/**
 * @file
 * The benchmark's workloads and the pass that runs one of them:
 * set-up (workload generation + System construction), simulation of
 * every cell on a fixed number of host threads, and the correctness
 * checks every cell must pass.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"
#include "system/system.hh"
#include "workload/workload.hh"

namespace perfbench
{

using wastesim::ProtocolName;
using wastesim::RunResult;
using wastesim::SimParams;
using wastesim::Workload;

/** One simulation: a protocol over one of the spec's workloads. */
struct CellSpec
{
    ProtocolName protocol;
    std::size_t workload; //!< index into WorkloadSpec::generators
};

/** A benchmark workload: inputs, cells and host concurrency. */
struct WorkloadSpec
{
    std::string name;
    SimParams params;
    std::vector<std::function<std::unique_ptr<Workload>()>> generators;
    std::vector<CellSpec> cells;
    unsigned threads = 1; //!< cells simulated concurrently
    bool golden = false;  //!< every cell must match the golden cache
};

/** Names of the benchmark's workloads. */
const std::vector<std::string> &workloadNames();

/**
 * The workload named @p name with inputs drawn from @p seed.
 * @return false for an unknown name.
 */
bool makeWorkloadSpec(const std::string &name, std::uint64_t seed,
                      WorkloadSpec &out);

/** The committed golden sweep cache, cell blocks by "PROTO BENCH". */
class GoldenCells
{
  public:
    /** Parse a wastesim-cells-v2 cache; false (with @p err) if bad. */
    bool parse(const std::string &text, std::string &err);

    /** The serialized block of one cell, or null when absent. */
    const std::string *find(const std::string &protocol,
                            const std::string &benchmark) const;

    std::size_t size() const { return blocks_.size(); }

    /** Replace one cell's block (tests tamper with the golden). */
    void set(const std::string &protocol, const std::string &benchmark,
             std::string block);

  private:
    std::map<std::string, std::string> blocks_;
};

/** Cells attempted and failed; a failure is never dropped. */
struct FailTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }

    double
    frac() const
    {
        return attempted ? static_cast<double>(failed) / attempted : 0;
    }
};

/**
 * The simulator's conservation laws over one finished cell (result
 * and end-of-run System state).  Appends one line per violation to
 * @p problems.
 */
void checkInvariants(const wastesim::System &sys, const Workload &wl,
                     const RunResult &r,
                     std::vector<std::string> &problems);

/**
 * Byte compare of @p encoded (serializeResult of @p r) against the
 * cell's golden block, diagnosed field by field on a mismatch; a cell
 * missing from the golden cache is a problem too.
 */
void checkGolden(const RunResult &r, const std::string &encoded,
                 const GoldenCells &golden,
                 std::vector<std::string> &problems);

/** Name every field where @p r differs from the serialized
 *  @p reference block, prefixed with @p what. */
void diagnoseMismatch(const RunResult &r, const std::string &reference,
                      const char *what, std::vector<std::string> &problems);

/** Everything one simulated cell leaves behind. */
struct CellRecord
{
    RunResult result;
    std::string encoded;       //!< serializeResult(result)
    double seconds = 0;        //!< run + checks + encode, on its thread
    std::uint64_t loads = 0;   //!< trace loads of the cell's workload
    std::uint64_t stores = 0;
    std::uint64_t profInstances = 0; //!< MemProfiler instances after run
    std::vector<std::string> problems; //!< empty = cell passed
};

/** One set-up plus simulation of every cell of a workload. */
struct PassRecord
{
    double setupS = 0; //!< workload generation + System construction
    double wallS = 0;  //!< simulation phase, checks included
    std::uint64_t workloadOps = 0;  //!< trace ops of all workloads
    std::uint64_t workloadBytes = 0; //!< bytes of those Op records
    std::vector<CellRecord> cells;
};

/**
 * Set up and simulate every cell of @p spec once, checking each cell
 * (against @p golden when the spec requires it).  Spans go to @p rec
 * under @p parent.
 */
PassRecord runPass(const WorkloadSpec &spec, const GoldenCells *golden,
                   SpanRecorder &rec, int parent);

/** Set-up only (generate, construct, destroy); returns its seconds. */
double runSetup(const WorkloadSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
