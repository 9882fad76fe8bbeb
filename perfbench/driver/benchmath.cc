#include "benchmath.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "alloc_count.hh"
#include "harness/exec/wire.hh"

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
    std::size_t k = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
    return values[std::min(k, values.size()) - 1];
}

Tail
tailPercentile(std::vector<double> values, std::size_t min_beyond)
{
    Tail t;
    t.n = values.size();
    if (t.n <= min_beyond) {
        t.value = percentile(values, 50.0);
        std::size_t k = (t.n + 1) / 2;
        t.beyond = t.n - std::min(k, t.n);
        return t;
    }
    // Largest rank with min_beyond samples after it, then the largest
    // whole percentile whose nearest rank does not pass it:
    // ceil(p * n / 100) <= k  <=>  p <= 100 k / n.
    std::size_t k = t.n - min_beyond;
    t.pct = static_cast<int>(std::min<std::size_t>(99, 100 * k / t.n));
    std::sort(values.begin(), values.end());
    std::size_t rank =
        (static_cast<std::size_t>(t.pct) * t.n + 99) / 100;
    rank = std::max<std::size_t>(rank, 1);
    t.value = values[rank - 1];
    t.beyond = t.n - rank;
    return t;
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    }
    return self;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
modeledOutput(const gpump::harness::RunResult &result)
{
    gpump::harness::RunResult r = result;
    r.wallSeconds = 0.0;
    r.sys.eventsExecuted = 0;
    return gpump::harness::exec::encodeResult(r);
}

std::uint64_t
outputDigest(const gpump::harness::RunResult &result)
{
    return fnv1a(modeledOutput(result));
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

std::vector<std::string>
runSelfTests()
{
    std::vector<std::string> fails;
    auto check = [&](bool ok, const std::string &what) {
        if (!ok)
            fails.push_back(what);
    };

    // Order statistics.
    check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
          "median of odd/even lists");
    check(percentile({5, 1, 4, 2, 3}, 50) == 3 &&
              percentile({5, 1, 4, 2, 3}, 100) == 5 &&
              percentile({5, 1, 4, 2, 3}, 1) == 1,
          "nearest-rank percentile");

    // The >=10-beyond tail rule.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    Tail t100 = tailPercentile(hundred);
    check(t100.pct == 90 && t100.value == 90 && t100.beyond == 10,
          "tail of 100 samples is p90 with 10 beyond");
    std::vector<double> sixteen(hundred.begin(), hundred.begin() + 16);
    Tail t16 = tailPercentile(sixteen);
    check(t16.pct == 37 && t16.value == 6 && t16.beyond == 10,
          "tail of 16 samples is p37 (rank 6) with 10 beyond");
    std::vector<double> eleven(hundred.begin(), hundred.begin() + 11);
    Tail t11 = tailPercentile(eleven);
    check(t11.pct == 9 && t11.value == 1 && t11.beyond == 10,
          "tail of 11 samples is p9 (rank 1) with 10 beyond");
    std::vector<double> ten(hundred.begin(), hundred.begin() + 10);
    Tail t10 = tailPercentile(ten);
    check(t10.pct == 50 && t10.value == 5,
          "tail of 10 samples falls back to the median");
    std::vector<double> big(1000, 1.0);
    check(tailPercentile(big).pct == 99, "tail of 1000 samples is p99");

    // Span self time: children are subtracted from their parent only.
    std::vector<Span> spans(4);
    spans[0] = {"a", 0, 100, -1, 0};
    spans[1] = {"b", 10, 40, 0, 0};
    spans[2] = {"c", 50, 70, 0, 0};
    spans[3] = {"d", 15, 25, 1, 0};
    std::vector<std::int64_t> self = selfTimesNs(spans);
    check(self == std::vector<std::int64_t>{50, 20, 20, 10},
          "span self time = duration minus direct children");

    // The digest ignores host telemetry and simulator effort only.
    gpump::harness::RunResult r;
    r.tag = "t";
    r.metrics.antt = 1.5;
    r.sys.runs = {{{0, 10, 0}}};
    r.sys.preemptions = 3;
    r.sys.eventsExecuted = 100;
    r.wallSeconds = 0.25;
    gpump::harness::RunResult faster = r;
    faster.wallSeconds = 0.125;
    faster.sys.eventsExecuted = 50;
    gpump::harness::RunResult other = r;
    other.sys.preemptions = 4;
    check(outputDigest(r) == outputDigest(faster),
          "digest ignores wall_seconds and events");
    check(outputDigest(r) != outputDigest(other),
          "digest sees a changed simulated counter");
    check(modeledOutput(r).find("\"preemptions\":3") != std::string::npos,
          "modeled output keeps simulated counters");

    // Metric-name charset.
    check(validMetricName("sim.events_per_tb") &&
              validMetricName("core.ns_per_tb.dss-pred_adaptive") &&
              validMetricName("0ok"),
          "valid metric names accepted");
    check(!validMetricName("") && !validMetricName(".x") &&
              !validMetricName("a b") && !validMetricName("a/b") &&
              !validMetricName(std::string(65, 'a')),
          "invalid metric names rejected");

    // With tracking off (the timed sweeps) nothing is counted.
    beginAllocationCount();
    auto untracked = std::make_unique<int>(1);
    check(endAllocationCount() == 0 && *untracked == 1,
          "no allocation is counted while tracking is off");

    // The allocation counter sees only its own window.
    setTracking(true);
    auto outside = std::make_unique<int>(1);
    beginAllocationCount();
    std::uint64_t empty = endAllocationCount();
    beginAllocationCount();
    auto inside = std::make_unique<std::vector<int>>(8);
    std::uint64_t counted = endAllocationCount();
    auto after = std::make_unique<int>(2);
    check(empty == 0 && counted == 2 && *outside + *after == 3 &&
              inside->size() == 8,
          "allocation counter counts only inside its window");

    // The heap high-water mark sees a block that has since been freed.
    resetHeapPeak();
    const std::int64_t before = heapPeakBytes();
    auto block = std::make_unique<std::vector<char>>(1 << 20);
    block.reset();
    check(heapPeakBytes() - before >= (1 << 20),
          "heap high-water mark keeps a freed 1 MiB block");
    setTracking(false);
    return fails;
}

} // namespace perfbench
