/** Tests of the benchmark harness itself. */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "bench.hh"
#include "report.hh"
#include "spans.hh"
#include "stats.hh"
#include "workload/workload.hh"

namespace perfbench
{

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

GoldenCells
loadGolden()
{
    GoldenCells g;
    std::string err;
    EXPECT_TRUE(g.parse(readFile(std::string(PERFBENCH_REPO_ROOT) +
                                 "/tests/golden/wastesim_sweep_4x4.cache"),
                        err))
        << err;
    return g;
}

/** Paper-grid LU cells checked against the golden: MESI, plus
 *  DeNovo on a second thread when @p both. */
WorkloadSpec
goldenLuCells(bool both = false)
{
    WorkloadSpec s;
    s.name = "lu-cells";
    s.params = SimParams::scaled();
    s.generators.push_back([] {
        return wastesim::makeBenchmark(wastesim::BenchmarkName::LU, 1);
    });
    s.cells.push_back({ProtocolName::MESI, 0});
    if (both) {
        s.cells.push_back({ProtocolName::DeNovo, 0});
        s.threads = 2;
    }
    s.golden = true;
    return s;
}

Span
span(const char *name, double start, double end, int parent)
{
    return Span{name, start, end, parent, 0};
}

} // namespace

TEST(Percentile, IncompleteBeta)
{
    EXPECT_NEAR(incompleteBeta(0.3, 1, 1), 0.3, 1e-12);
    // I_x(2, 2) = 3x^2 - 2x^3.
    EXPECT_NEAR(incompleteBeta(0.3, 2, 2), 0.216, 1e-12);
    EXPECT_NEAR(incompleteBeta(0.9, 2, 2), 0.972, 1e-12);
    EXPECT_NEAR(incompleteBeta(0.2, 44, 11) + incompleteBeta(0.8, 11, 44),
                1, 1e-12);
    EXPECT_EQ(incompleteBeta(0, 3, 4), 0);
    EXPECT_EQ(incompleteBeta(1, 3, 4), 1);
}

TEST(Percentile, HarrellDavisAtFiftyFour)
{
    std::vector<double> v;
    for (int i = 54; i >= 1; --i)
        v.push_back(i);
    // On evenly spaced samples the estimate is p * n + 1/2: p80 sits
    // at rank 43.7, with the 11 cells of ranks 44-54 above it.
    EXPECT_NEAR(percentile(v, 80), 43.7, 1e-9);
    EXPECT_NEAR(percentile(v, 50), 27.5, 1e-9);
    EXPECT_EQ(percentile(v, 100), 54);
    EXPECT_EQ(percentile(v, 0), 1);
    EXPECT_EQ(percentile({}, 80), 0);
    EXPECT_NEAR(percentile({3.5}, 80), 3.5, 1e-12);
    // n = 3, p50: Beta(2, 2) puts 7/27, 13/27, 7/27 on the ranks.
    EXPECT_NEAR(percentile({27, 0, 0}, 50), 7, 1e-9);
}

TEST(Percentile, Median)
{
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
    EXPECT_EQ(median({}), 0);
}

TEST(Percentile, CellMediansOverPasses)
{
    // Three passes of three cells; pass 2 is slow throughout.
    const std::vector<std::vector<double>> byPass = {
        {1, 10, 100}, {3, 30, 300}, {2, 20, 200}};
    EXPECT_EQ(cellMedians(byPass), (std::vector<double>{2, 20, 200}));
    EXPECT_EQ(percentile(cellMedians(byPass), 80),
              percentile({2, 20, 200}, 80));
    EXPECT_TRUE(cellMedians({}).empty());
}

TEST(SelfTime, SpanMinusUnionOfChildren)
{
    const std::vector<Span> spans = {
        span("simulate", 0, 10, -1),
        span("cell", 1, 3, 0),       // overlaps the next child
        span("cell", 2, 5, 0),
        span("cell", 8, 12, 0),      // clipped to the parent at 10
        span("system.run", 1, 2.5, 1), // grandchild: not the root's child
    };
    const std::vector<double> self = selfTimes(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_DOUBLE_EQ(self[0], 10 - (4 + 2)); // covered: [1,5] and [8,10]
    EXPECT_DOUBLE_EQ(self[1], 2 - 1.5);
    EXPECT_DOUBLE_EQ(self[2], 3);
    EXPECT_DOUBLE_EQ(self[3], 4);
    EXPECT_DOUBLE_EQ(self[4], 1.5);

    const auto by = selfTimeByName(spans);
    EXPECT_DOUBLE_EQ(by.at("cell"), 0.5 + 3 + 4);
    EXPECT_DOUBLE_EQ(by.at("simulate"), 4);
}

TEST(SelfTime, RecorderNestsAndExports)
{
    SpanRecorder rec(true);
    {
        ScopedSpan outer(rec, "pass", -1, 0);
        ScopedSpan inner(rec, "setup", outer.id(), 0);
        EXPECT_EQ(inner.id(), 1);
    }
    const auto spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_GE(spans[0].end, spans[1].end);
    const std::vector<double> self = selfTimes(spans);
    EXPECT_NEAR(self[0] + self[1], spans[0].end - spans[0].start, 1e-12);
    wastesim::Timeline tl;
    addToTimeline(spans, tl);
    EXPECT_EQ(tl.size(), 2u);
    const std::string json = tl.toJson();
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"setup\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"main\""), std::string::npos);
    EXPECT_GT(spanCostSeconds(1000), 0);

    SpanRecorder off(false);
    EXPECT_EQ(off.open("pass", -1, 0), -1);
    EXPECT_TRUE(off.spans().empty());
}

TEST(FailFrac, CleanCellPasses)
{
    const GoldenCells golden = loadGolden();
    EXPECT_EQ(golden.size(), 54u);
    SpanRecorder rec(true);
    const PassRecord p = runPass(goldenLuCells(true), &golden, rec, -1);
    ASSERT_EQ(p.cells.size(), 2u);
    FailTally tally;
    for (const CellRecord &c : p.cells) {
        EXPECT_TRUE(c.problems.empty()) << c.problems.front();
        tally.add(c.problems.empty());
    }
    EXPECT_EQ(tally.frac(), 0);
    // Both cells ran under the simulate span, on their own lanes.
    const auto by = selfTimeByName(rec.spans());
    EXPECT_GT(by.at("system.run"), 0);
    EXPECT_EQ(by.count("workload.build"), 1u);
}

TEST(FailFrac, TamperedGoldenCellFails)
{
    GoldenCells golden = loadGolden();
    std::string block = *golden.find("MESI", "LU");
    // Change the first digit of the first counter line.
    const std::size_t at = block.find_first_of("0123456789", block.find('\n'));
    block[at] = block[at] == '9' ? '8' : static_cast<char>(block[at] + 1);
    golden.set("MESI", "LU", block);

    SpanRecorder rec(false);
    const PassRecord p = runPass(goldenLuCells(), &golden, rec, -1);
    ASSERT_EQ(p.cells.size(), 1u);
    ASSERT_FALSE(p.cells[0].problems.empty());
    EXPECT_NE(p.cells[0].problems[0].find("golden"), std::string::npos);

    FailTally tally;
    tally.add(true);
    const double before = tally.frac();
    tally.add(p.cells[0].problems.empty());
    EXPECT_GT(tally.frac(), before);
    EXPECT_EQ(tally.failed, 1u);
    EXPECT_EQ(tally.attempted, 2u);
}

TEST(FailFrac, MissingGoldenCellFails)
{
    GoldenCells empty;
    RunResult r;
    r.protocol = "MESI";
    r.benchmark = "LU";
    std::vector<std::string> problems;
    checkGolden(r, "", empty, problems);
    EXPECT_EQ(problems.size(), 1u);
}

TEST(FailFrac, ForcedInvariantViolationFails)
{
    const WorkloadSpec spec = goldenLuCells();
    auto wl = spec.generators[0]();
    wastesim::System sys(ProtocolName::MESI, *wl, spec.params);
    RunResult r = sys.run();

    std::vector<std::string> problems;
    checkInvariants(sys, *wl, r, problems);
    EXPECT_TRUE(problems.empty());

    // Break dram.chan-sum: one channel claims an extra read.
    ASSERT_FALSE(r.dramChan.empty());
    r.dramChan[0].reads += 1;
    checkInvariants(sys, *wl, r, problems);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("dram.chan-sum"), std::string::npos);

    FailTally tally;
    tally.add(true);
    tally.add(problems.empty());
    EXPECT_DOUBLE_EQ(tally.frac(), 0.5);
}

TEST(MetricNames, AllMatchTheAllowedAlphabet)
{
    // [A-Za-z0-9_.-]+, at most 64 characters, led by a letter or digit.
    const std::regex allowed("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    EXPECT_TRUE(std::regex_match("cell_s.p80", allowed));
    EXPECT_FALSE(std::regex_match(".hidden", allowed));
    EXPECT_FALSE(std::regex_match("a b", allowed));
    EXPECT_FALSE(std::regex_match(std::string(65, 'a'), allowed));
    std::set<std::string> seen;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
        for (const MetricDef &d : *defs) {
            EXPECT_TRUE(std::regex_match(d.name, allowed)) << d.name;
            EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
        }
    for (const std::string &n : workloadNames())
        EXPECT_TRUE(std::regex_match(n, allowed)) << n;
}

TEST(MetricNames, MatchBenchmarkJson)
{
    const std::string json =
        readFile(std::string(PERFBENCH_REPO_ROOT) + "/BENCHMARK.json");
    ASSERT_FALSE(json.empty());
    // "name"/"unit" pairs of one top-level list, in order.
    auto section = [&](const std::string &key) {
        const std::size_t a = json.find("\"" + key + "\"");
        const std::string body = json.substr(a, json.find(']', a) - a);
        const std::regex field("\"(name|unit)\"\\s*:\\s*\"([^\"]*)\"");
        std::vector<std::string> out;
        for (std::sregex_iterator it(body.begin(), body.end(), field), end;
             it != end; ++it)
            out.push_back((*it)[1].str() + "=" + (*it)[2].str());
        return out;
    };
    auto declared = [](const std::vector<MetricDef> &defs) {
        std::vector<std::string> out;
        for (const MetricDef &d : defs) {
            out.push_back("name=" + d.name);
            out.push_back("unit=" + d.unit);
        }
        return out;
    };
    EXPECT_EQ(section("end_to_end"), declared(endToEndMetrics()));
    EXPECT_EQ(section("per_layer"), declared(perLayerMetrics()));
    std::vector<std::string> workloads;
    for (const std::string &n : workloadNames())
        workloads.push_back("name=" + n);
    EXPECT_EQ(section("workloads"), workloads);
}

TEST(ResultLine, HasExactlyTheContractKeys)
{
    Metrics m;
    m.add("wall_s", 1.25);
    m.add("setup_s", std::nan(""));
    EXPECT_THROW(m.add("no_such_metric", 1), std::invalid_argument);
    const std::string line = resultJson(3, 1, m);
    EXPECT_EQ(line, "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
                    "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": "
                    "\"s\"}, \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}");
}

} // namespace perfbench
