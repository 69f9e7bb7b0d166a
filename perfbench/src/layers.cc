#include "layers.hh"

#include <chrono>
#include <string>

#include "common/rng.hh"
#include "dram/dram_channel.hh"
#include "noc/network.hh"
#include "profile/mem_profiler.hh"
#include "profile/traffic.hh"
#include "profile/word_profiler.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace perfbench
{

using namespace wastesim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

LayerTiming
fail(std::string what)
{
    LayerTiming t;
    t.ok = false;
    t.problem = std::move(what);
    return t;
}

/** Swallows deliveries. */
class NullHandler : public MessageHandler
{
  public:
    void handle(Message) override { ++received; }
    std::uint64_t received = 0;
};

} // namespace

LayerTiming
eventQueueEventsPerSec(std::uint64_t events)
{
    static constexpr Tick delays[] = {1, 3, 8, 20, 150, 500, 10000};
    static constexpr unsigned numDelays = sizeof(delays) / sizeof(delays[0]);
    static constexpr unsigned actors = 4096;

    struct Actor
    {
        EventQueue *eq;
        std::uint64_t *remaining;
        unsigned phase;

        void
        operator()()
        {
            if (*remaining == 0)
                return;
            --*remaining;
            const Tick d = delays[phase % numDelays];
            eq->schedule(d, Actor{eq, remaining, phase + 1});
        }
    };

    EventQueue eq;
    std::uint64_t remaining = events;
    const auto t0 = Clock::now();
    for (unsigned a = 0; a < actors; ++a)
        eq.schedule(a % numDelays, Actor{&eq, &remaining, a});
    eq.run();
    const double s = secondsSince(t0);
    // Each actor runs once more after the budget is spent.
    if (eq.executed() != events + actors)
        return fail("event queue executed " + std::to_string(eq.executed()) +
                    " events, expected " + std::to_string(events + actors));
    LayerTiming t;
    t.value = static_cast<double>(eq.executed()) / s;
    return t;
}

LayerTiming
networkSendNs(const Topology &topo, std::uint64_t messages,
              std::uint64_t seed)
{
    EventQueue eq;
    TrafficRecorder traffic;
    Network net(eq, traffic, SimParams{}.linkLatency, topo);
    NullHandler sink;
    for (unsigned i = 0; i < topo.numTiles(); ++i) {
        net.attach(l1Ep(i), &sink);
        net.attach(l2Ep(i), &sink);
    }
    for (unsigned m = 0; m < topo.numMemCtrls(); ++m)
        net.attach(mcEp(m), &sink);

    Rng rng(seed);
    const unsigned tiles = topo.numTiles();
    const auto t0 = Clock::now();
    for (std::uint64_t sent = 0; sent < messages;) {
        // Bursts of sends, then deliver them: in-flight depth stays
        // near what a busy mesh carries.
        for (unsigned b = 0; b < 64 && sent < messages; ++b, ++sent) {
            Message m;
            const unsigned src = static_cast<unsigned>(rng.below(tiles));
            const unsigned dst = static_cast<unsigned>(rng.below(tiles));
            m.line = (rng.below(1u << 20) + 1) * bytesPerLine;
            m.cls = TrafficClass::Load;
            if (rng.below(3) == 0) {
                m.kind = MsgKind::Data;
                m.src = l2Ep(src);
                m.dst = l1Ep(dst);
                m.ctl = CtlType::RespCtl;
                m.chunks.push_back(LineChunk(m.line, WordMask::full()));
            } else {
                m.kind = MsgKind::GetS;
                m.src = l1Ep(src);
                m.dst = l2Ep(dst);
                m.ctl = CtlType::ReqCtl;
            }
            net.send(std::move(m));
        }
        eq.run();
    }
    const double s = secondsSince(t0);
    if (sink.received != messages || net.messagesSent() != messages)
        return fail("network delivered " + std::to_string(sink.received) +
                    " of " + std::to_string(messages) + " messages");
    if (net.totalLinkFlits() != net.flitHopsCharged())
        return fail("network link flits do not sum to flit-hops charged");
    LayerTiming t;
    t.value = s * 1e9 / static_cast<double>(messages);
    return t;
}

LayerTiming
dramEnqueueNs(std::uint64_t requests, std::uint64_t seed)
{
    EventQueue eq;
    const DramMap map;
    DramChannel ch(eq, map, 0);
    Rng rng(seed);
    std::uint64_t done = 0, reads = 0;
    Addr local = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t queued = 0; queued < requests;) {
        for (unsigned b = 0; b < 16 && queued < requests; ++b, ++queued) {
            // Half the stream walks lines in order (row hits), half
            // jumps (row misses and conflicts), as MC traffic does.
            local = rng.below(2) ? local + 1 : rng.below(1u << 16);
            DramRequest req;
            req.line = local * map.numChannels * bytesPerLine;
            req.isWrite = rng.below(10) >= 7;
            if (!req.isWrite) {
                ++reads;
                req.onDone = [&done](Tick) { ++done; };
            }
            ch.enqueue(std::move(req));
        }
        eq.run();
    }
    const double s = secondsSince(t0);
    if (ch.reads() + ch.writes() != requests || done != reads)
        return fail("dram served " + std::to_string(ch.reads() + ch.writes()) +
                    " of " + std::to_string(requests) + " requests");
    LayerTiming t;
    t.value = s * 1e9 / static_cast<double>(requests);
    return t;
}

LayerTiming
wordProfilerNs(std::uint64_t lines, std::uint64_t seed)
{
    WordProfiler prof(WordProfiler::Level::L1);
    Rng rng(seed);
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t l = 0; l < lines; ++l) {
        const Addr base = rng.below(4096) * wordsPerLine;
        for (unsigned w = 0; w < wordsPerLine; ++w)
            prof.arrive(base + w, TrafficClass::Load);
        for (unsigned k = 0; k < 8; ++k)
            prof.load(base + rng.below(wordsPerLine));
        for (unsigned k = 0; k < 2; ++k)
            prof.store(base + rng.below(wordsPerLine));
        for (unsigned w = 0; w < wordsPerLine; ++w)
            prof.evict(base + w);
        calls += 2 * wordsPerLine + 10;
    }
    const double s = secondsSince(t0);
    if (prof.counts().total() != static_cast<double>(lines * wordsPerLine))
        return fail("word profiler lost instances");
    LayerTiming t;
    t.value = s * 1e9 / static_cast<double>(calls);
    return t;
}

LayerTiming
memProfilerNs(std::uint64_t words, std::uint64_t seed)
{
    MemProfiler prof;
    Rng rng(seed);
    std::uint64_t calls = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < words; ++i) {
        // A word fetched from memory into the L2, copied to an L1,
        // sometimes read, then dropped by both copies.
        const InstId id = prof.create(rng.below(1u << 18), false);
        prof.addRef(id);
        prof.addRef(id);
        const bool use = rng.below(2) != 0;
        if (use)
            prof.used(id);
        prof.dropRef(id, false);
        prof.dropRef(id, rng.below(4) == 0);
        calls += use ? 6 : 5;
    }
    const double s = secondsSince(t0);
    if (prof.finalize().total() != static_cast<double>(words))
        return fail("memory profiler lost instances");
    LayerTiming t;
    t.value = s * 1e9 / static_cast<double>(calls);
    return t;
}

} // namespace perfbench
