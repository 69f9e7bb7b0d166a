/**
 * @file
 * Isolated layer probes: each feeds one serial simulator component a
 * fixed, seeded call stream shaped like the simulator's own use of it,
 * times it, and checks the component's outputs for that stream.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>

#include "common/topology.hh"

namespace perfbench
{

/** A probe's measurement; ok is false when the outputs were wrong. */
struct LayerTiming
{
    double value = 0;
    bool ok = true;
    std::string problem;
};

/** EventQueue events per host second, over the simulator's delay mix
 *  (core step, link hop, L2 latency, NACK retry, DRAM, WC timeout). */
LayerTiming eventQueueEventsPerSec(std::uint64_t events);

/** Host ns per Network::send (delivery included) of a seeded mix of
 *  control and full-line data messages to null handlers on @p topo. */
LayerTiming networkSendNs(const wastesim::Topology &topo,
                          std::uint64_t messages, std::uint64_t seed);

/** Host ns per DramChannel request (enqueue through completion) of a
 *  seeded mix of row-local and random lines, 70% reads. */
LayerTiming dramEnqueueNs(std::uint64_t requests, std::uint64_t seed);

/** Host ns per WordProfiler call of an L1-style stream: arrive a
 *  line, load and store some words, evict it. */
LayerTiming wordProfilerNs(std::uint64_t lines, std::uint64_t seed);

/** Host ns per MemProfiler call: create, add/drop references, use. */
LayerTiming memProfilerNs(std::uint64_t words, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
