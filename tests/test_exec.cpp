/**
 * Tests of the multi-process sweep executor (harness/exec): the
 * bit-exact wire codec, the crash-safe on-disk result cache, and —
 * via fault injection — the coordinator's whole robustness envelope:
 * SIGKILLed workers, wedged workers past the watchdog, interrupted
 * sweeps resuming from cache, and degradation to in-process
 * execution.  Every recovery path must end byte-identical to a clean
 * single-process run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/args.hh"
#include "harness/exec/cache.hh"
#include "harness/exec/coordinator.hh"
#include "harness/exec/wire.hh"
#include "harness/interrupt.hh"
#include "harness/suite.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

using namespace gpump;
using namespace gpump::harness;

namespace {

/** The small grid shared by the executor tests (2 schemes x 3 plans). */
Batch
smallGrid()
{
    Suite suite("grid");
    suite.sizes({2})
        .uniform(/*count=*/3, /*base_seed=*/20140614)
        .minReplays(1)
        .scheme("FCFS", {"fcfs", "context_switch", "fcfs"})
        .scheme("DSS-CS", {"dss", "context_switch", "fcfs"});
    return suite.build();
}

/** Canonical rendering of a result for cross-run comparison:
 *  wallSeconds is host-timing noise (explicitly outside the
 *  determinism contract), everything else must match bit-for-bit. */
std::string
canon(RunResult r)
{
    r.wallSeconds = 0.0;
    return exec::encodeResult(r);
}

std::vector<std::string>
canonAll(const std::vector<RunResult> &results)
{
    std::vector<std::string> out;
    out.reserve(results.size());
    for (const RunResult &r : results)
        out.push_back(canon(r));
    return out;
}

/** Fresh scratch directory under the system temp dir; removed on
 *  destruction. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const std::string &name)
        : path(std::filesystem::temp_directory_path() /
               (name + "." + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    std::string str() const { return path.string(); }
};

/** A RunResult exercising every codec field, including the values
 *  decimal formatting would mangle: NaN, infinities, denormals and
 *  full-precision doubles. */
RunResult
fullResult()
{
    RunResult r;
    r.index = 7;
    r.tag = "grid/size=2/plan=1/\"quoted\"\n\ttag";
    r.scheme = {"dss", "draining", "priority"};
    r.metrics.ntt = {1.0000000000000002, 2.5,
                     std::numeric_limits<double>::quiet_NaN()};
    r.metrics.antt = std::numeric_limits<double>::infinity();
    r.metrics.stp = -std::numeric_limits<double>::infinity();
    r.metrics.fairness = 5e-324; // smallest denormal
    r.isolatedUs = {123.4567891234567, 0.1};
    r.sys.meanTurnaroundUs = {1.0 / 3.0, 2.0 / 3.0};
    r.sys.meanLatencyUs = {9.999999999999998};
    r.sys.droppedRequests = {0, 42};
    r.sys.runs = {{{1, 2, 3}, {40, 50, 60}}, {}, {{7, 8, 9}}};
    r.sys.endTime = 9223372036854775807LL; // INT64_MAX survives
    r.sys.eventsExecuted = 123456789;
    r.sys.kernelsCompleted = 17;
    r.sys.preemptions = 3;
    r.sys.contextBytesSaved = 1.5e9;
    r.sys.maxPtbqDepth = 12.0;
    r.wallSeconds = 0.25;
    r.servingRun = true;
    serve::ClassMetrics c;
    c.name = "latency-critical";
    c.requests = 100;
    c.completed = 95;
    c.dropped = 5;
    c.deadlineMisses = 2;
    c.latency = {95, 10.5, 9.0, 30.000000000000004, 40.0, 41.5};
    c.missRate = 0.02105263157894737;
    c.throughputPerSec = 950.0;
    c.goodputPerSec = std::numeric_limits<double>::quiet_NaN();
    r.serving.classes.push_back(c);
    r.serving.windowFairness = 0.875;
    r.serving.windowUs = 1e6;
    return r;
}

/** Structural equality of two parsed JSON values (numbers compare by
 *  their raw token). */
bool
sameJson(const exec::JsonValue &a, const exec::JsonValue &b)
{
    if (a.type != b.type || a.boolean != b.boolean || a.text != b.text ||
        a.items.size() != b.items.size() ||
        a.members.size() != b.members.size())
        return false;
    for (std::size_t i = 0; i < a.items.size(); ++i) {
        if (!sameJson(a.items[i], b.items[i]))
            return false;
    }
    for (std::size_t i = 0; i < a.members.size(); ++i) {
        if (a.members[i].first != b.members[i].first ||
            !sameJson(a.members[i].second, b.members[i].second))
            return false;
    }
    return true;
}

/** Apply one random edit to @p s: replace, delete or insert a byte,
 *  truncate, or splice in a copy of one of its own spans. */
void
mutate(std::string &s, sim::Rng &rng)
{
    // JSON structure, the digits and letters of the hexfloat and
    // integer spellings, and a few bytes no record contains.
    static const std::string alphabet =
        "{}[]\",:-+.0123456789abcdefpxinrtu\\ \n\x01\xff";
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniformInt(n));
    };
    const char byte = alphabet[pick(alphabet.size())];
    const std::size_t pos = pick(s.size() + 1);
    switch (pick(5)) {
      case 0:
        if (pos < s.size())
            s[pos] = byte;
        break;
      case 1:
        if (pos < s.size())
            s.erase(pos, 1);
        break;
      case 2:
        s.insert(pos, 1, byte);
        break;
      case 3:
        s.resize(pos);
        break;
      default: {
        const std::size_t from = pick(s.size() + 1);
        const std::size_t len = pick(s.size() - from + 1);
        s.insert(pos, s.substr(from, len));
        break;
      }
    }
}

} // namespace

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

TEST(ExecWire, HexDoubleRoundTripsEveryValueClass)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            1.0 / 3.0,
                            -123.456789123456789,
                            5e-324,
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
    for (double v : cases) {
        double back = exec::parseHexDouble(exec::encodeHexDouble(v),
                                           "test");
        // Bit-exact, including the sign of zero.
        EXPECT_EQ(std::signbit(back), std::signbit(v));
        EXPECT_EQ(back, v) << exec::encodeHexDouble(v);
    }
    double nan_back = exec::parseHexDouble(
        exec::encodeHexDouble(std::numeric_limits<double>::quiet_NaN()),
        "test");
    EXPECT_TRUE(std::isnan(nan_back));
    EXPECT_THROW(exec::parseHexDouble("bogus", "test"),
                 sim::FatalError);
    EXPECT_THROW(exec::parseHexDouble("", "test"), sim::FatalError);
}

TEST(ExecWire, ResultRoundTripsBitExactIncludingServing)
{
    RunResult r = fullResult();
    std::string line = exec::encodeResult(r);
    RunResult back = exec::decodeResult(line);
    // Re-encoding the decoded result must reproduce the original line
    // byte-for-byte — string equality sidesteps NaN != NaN while still
    // asserting bit-exactness of every field.
    EXPECT_EQ(exec::encodeResult(back), line);
    EXPECT_EQ(back.tag, r.tag);
    EXPECT_EQ(back.sys.runs, r.sys.runs);
    EXPECT_EQ(back.sys.endTime, r.sys.endTime);
    ASSERT_EQ(back.serving.classes.size(), 1u);
    EXPECT_EQ(back.serving.classes[0].name, "latency-critical");
}

TEST(ExecWire, RejectsMalformedAndVersionMismatch)
{
    EXPECT_THROW(exec::parseJson("{\"a\":}"), sim::FatalError);
    EXPECT_THROW(exec::parseJson("{} trailing"), sim::FatalError);
    EXPECT_THROW(exec::parseJson(""), sim::FatalError);
    EXPECT_THROW(exec::decodeResult(std::string("{\"v\":999}")),
                 sim::FatalError);

    RunResult out;
    EXPECT_FALSE(exec::tryDecodeResult("not json", out));
    EXPECT_FALSE(exec::tryDecodeResult("{\"v\":1}", out));
    std::string line = exec::encodeResult(fullResult());
    EXPECT_TRUE(exec::tryDecodeResult(line, out));
    EXPECT_FALSE(
        exec::tryDecodeResult(line.substr(0, line.size() / 2), out));
}

TEST(ExecWire, EveryEncodedFieldIsRequiredAndSetByFullResult)
{
    // Walks the encoding itself, so a field added to the codec's
    // table is covered without being listed here: it must be required
    // by the decoder, and fullResult() must give it a non-default
    // value (otherwise the round-trip tests above cannot see it).
    const exec::JsonValue full =
        exec::parseJson(exec::encodeResult(fullResult()));
    RunResult plain;
    plain.servingRun = true;
    plain.serving.classes.resize(1);
    const exec::JsonValue empty =
        exec::parseJson(exec::encodeResult(plain));
    ASSERT_NO_THROW(exec::decodeResult(full));

    // "v" is the format version and "serving" must be true on both
    // sides for the class fields to be encoded at all.
    std::size_t checked = 0;
    for (std::size_t i = 0; i < full.members.size(); ++i) {
        const std::string &key = full.members[i].first;
        exec::JsonValue dropped = full;
        dropped.members.erase(dropped.members.begin() +
                              static_cast<std::ptrdiff_t>(i));
        EXPECT_THROW(exec::decodeResult(dropped), sim::FatalError)
            << "decodes without '" << key << "'";
        if (key == "v" || key == "serving")
            continue;
        const exec::JsonValue *other = empty.find(key);
        ASSERT_NE(other, nullptr) << key;
        EXPECT_FALSE(sameJson(full.members[i].second, *other))
            << "fullResult() leaves '" << key << "' at its default";
        ++checked;
    }
    EXPECT_GE(checked, 20u);

    std::size_t classesAt = 0;
    while (full.members.at(classesAt).first != "classes")
        ++classesAt;
    const exec::JsonValue &cls = full.members[classesAt].second.items.at(0);
    const exec::JsonValue &plainCls =
        empty.get("classes", "test").items.at(0);
    for (std::size_t i = 0; i < cls.members.size(); ++i) {
        const std::string &key = cls.members[i].first;
        exec::JsonValue dropped = full;
        auto &members =
            dropped.members[classesAt].second.items.at(0).members;
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(i));
        EXPECT_THROW(exec::decodeResult(dropped), sim::FatalError)
            << "decodes without class field '" << key << "'";
        const exec::JsonValue *other = plainCls.find(key);
        ASSERT_NE(other, nullptr) << key;
        EXPECT_FALSE(sameJson(cls.members[i].second, *other))
            << "fullResult() leaves class field '" << key
            << "' at its default";
    }
    EXPECT_GE(cls.members.size(), 10u);
}

TEST(ExecWire, IntegersOutsideInt64AreRejectedNotClamped)
{
    EXPECT_EQ(exec::parseJson("9223372036854775807").asInt64("test"),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(exec::parseJson("-9223372036854775808").asInt64("test"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_THROW(exec::parseJson("9223372036854775808").asInt64("test"),
                 sim::FatalError);
    EXPECT_THROW(
        exec::parseJson("-9223372036854775809").asInt64("test"),
        sim::FatalError);
    EXPECT_THROW(exec::parseJson("18446744073709551593").asInt64("test"),
                 sim::FatalError);
}

TEST(ExecWire, NegativeUnsignedFieldsAreRejected)
{
    const std::string line = exec::encodeResult(fullResult());
    const auto with = [&line](const std::string &from,
                              const std::string &to) {
        std::string out = line;
        std::size_t at = out.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return out.replace(at, from.size(), to);
    };
    // The unsigned counters once decoded "-23" to 2^64 - 23, which
    // re-encodes to a token the decoder then clamped.
    EXPECT_THROW(exec::decodeResult(with("\"index\":7", "\"index\":-7")),
                 sim::FatalError);
    EXPECT_THROW(
        exec::decodeResult(with("\"events\":123456789", "\"events\":-23")),
        sim::FatalError);
    EXPECT_THROW(
        exec::decodeResult(with("\"kernels\":17", "\"kernels\":-17")),
        sim::FatalError);
    EXPECT_THROW(exec::decodeResult(
                     with("\"preemptions\":3", "\"preemptions\":-3")),
                 sim::FatalError);
    // Signed fields keep their sign.
    RunResult r = exec::decodeResult(
        with("\"end_time\":9223372036854775807", "\"end_time\":-5"));
    EXPECT_EQ(r.sys.endTime, -5);
}

TEST(ExecWire, MutatedRecordsDecodeToAFixedPointOrRaiseFatal)
{
    // Deterministic mutation fuzz of the decoder: every input either
    // raises FatalError or decodes to a result that encode/decode
    // reproduces byte for byte.
    const std::string seed = exec::encodeResult(fullResult());
    sim::Rng rng(20140614);
    int decoded = 0;
    int rejected = 0;
    int failures = 0;
    for (int iter = 0; iter < 100000 && failures < 5; ++iter) {
        std::string input = seed;
        const std::uint64_t edits = 1 + rng.uniformInt(3);
        for (std::uint64_t e = 0; e < edits; ++e)
            mutate(input, rng);
        RunResult r;
        try {
            r = exec::decodeResult(input);
        } catch (const sim::FatalError &) {
            ++rejected;
            continue;
        } catch (const std::exception &ex) {
            ++failures;
            ADD_FAILURE() << "non-fatal exception '" << ex.what()
                          << "' on input " << input;
            continue;
        }
        ++decoded;
        const std::string once = exec::encodeResult(r);
        const std::string twice =
            exec::encodeResult(exec::decodeResult(once));
        if (twice != once) {
            ++failures;
            ADD_FAILURE() << "not a fixed point: input " << input
                          << "\nencodes to " << once << "\nthen to "
                          << twice;
        }
    }
    EXPECT_EQ(failures, 0);
    // Both outcomes must actually be exercised.
    EXPECT_GT(decoded, 100);
    EXPECT_GT(rejected, 100);
}

// ---------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------

TEST(ExecCache, StoreLookupRoundTripAndTelemetry)
{
    TempDir dir("gpump_exec_cache");
    exec::ResultCache cache(dir.str());

    RunResult r = fullResult();
    EXPECT_FALSE(cache.lookup("key-a", r));
    EXPECT_EQ(cache.misses(), 1u);

    cache.store("key-a", fullResult());
    EXPECT_EQ(cache.stores(), 1u);
    RunResult back;
    ASSERT_TRUE(cache.lookup("key-a", back));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(exec::encodeResult(back),
              exec::encodeResult(fullResult()));
}

TEST(ExecCache, CorruptAndTruncatedEntriesDegradeToMisses)
{
    TempDir dir("gpump_exec_corrupt");
    exec::ResultCache cache(dir.str());
    cache.store("key-a", fullResult());
    std::string entry =
        (dir.path / (exec::hashKey("key-a") + ".entry")).string();
    ASSERT_TRUE(std::filesystem::exists(entry));

    // Truncate mid-payload: a torn write must read as a miss and the
    // offending file must be deleted so the rerun can replace it.
    {
        auto size = std::filesystem::file_size(entry);
        std::filesystem::resize_file(entry, size / 2);
    }
    RunResult back;
    EXPECT_FALSE(cache.lookup("key-a", back));
    EXPECT_FALSE(std::filesystem::exists(entry));

    // Corrupt payload under an intact header: same contract.
    cache.store("key-a", fullResult());
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "gpump-exec-cache v1\nkey-a\n{\"v\":1,garbage\nok\n";
    }
    EXPECT_FALSE(cache.lookup("key-a", back));
    EXPECT_FALSE(std::filesystem::exists(entry));

    // A colliding entry (same hash bucket, different key) is a miss
    // but must NOT be deleted — it belongs to some other request.
    cache.store("key-a", fullResult());
    {
        std::ofstream os(entry, std::ios::trunc);
        os << "gpump-exec-cache v1\nkey-b\n"
           << exec::encodeResult(fullResult()) << "\nok\n";
    }
    EXPECT_FALSE(cache.lookup("key-a", back));
    EXPECT_TRUE(std::filesystem::exists(entry));
}

TEST(ExecCache, RequestKeyCoversEverythingThatChangesAResult)
{
    Batch batch = smallGrid();
    sim::Config base;
    std::string k0 = exec::requestKey(base, batch.requests[0]);
    EXPECT_EQ(k0, exec::requestKey(base, batch.requests[0]));

    // Distinct scheme, plan or replay count => distinct key.
    EXPECT_NE(k0, exec::requestKey(base, batch.requests[1]));
    EXPECT_NE(k0, exec::requestKey(base, batch.requests[2]));
    RunRequest tweaked = batch.requests[0];
    tweaked.minReplays += 1;
    EXPECT_NE(k0, exec::requestKey(base, tweaked));
    tweaked = batch.requests[0];
    tweaked.overrides.set("gpu.num_sms", std::int64_t{4});
    EXPECT_NE(k0, exec::requestKey(base, tweaked));
    // ... and a *base*-config change reaches the key too.
    sim::Config other;
    other.set("gpu.num_sms", std::int64_t{4});
    EXPECT_NE(k0, exec::requestKey(other, batch.requests[0]));
}

TEST(ExecCache, StaleEntriesAreDetected)
{
    TempDir dir("gpump_exec_stale");
    exec::ResultCache cache(dir.str());
    cache.store("live-key", fullResult());
    cache.store("stale-key", fullResult());

    auto stale = cache.staleEntries({"live-key"});
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0],
              (dir.path / (exec::hashKey("stale-key") + ".entry"))
                  .string());
    EXPECT_TRUE(cache.staleEntries({"live-key", "stale-key"}).empty());
}

// ---------------------------------------------------------------------
// Coordinator: identity and crash recovery
// ---------------------------------------------------------------------

TEST(ExecCoordinator, WorkersMatchThreadPoolByteForByte)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/2);
    auto expected = canonAll(plain.run(batch.requests));

    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 3;
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_EQ(stats.computed, batch.requests.size());
    EXPECT_EQ(stats.requeues, 0u);
}

TEST(ExecCoordinator, SigkilledWorkerMidSweepIsRequeued)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.backoffBaseSec = 0.01;
    opt.testKillAfterResults = 1; // SIGKILL a busy worker mid-sweep
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_GE(stats.requeues, 1u);
    EXPECT_GE(stats.respawns, 1u);
}

TEST(ExecCoordinator, WedgedWorkerTimesOutThenDegradesInProcess)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    // Every worker wedges on request 0, so the watchdog fires, the
    // retry budget drains, and the coordinator must finish request 0
    // itself (in-process) — with output still byte-identical.
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.requestTimeoutSec = 0.25;
    opt.maxRetries = 1;
    opt.backoffBaseSec = 0.01;
    opt.testHangOnIndex = 0;
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_GE(stats.timeouts, 2u); // initial try + one retry
    EXPECT_GE(stats.inProcess, 1u);
}

TEST(ExecCoordinator, InterruptedSweepResumesFromCacheByteIdentical)
{
    Batch batch = smallGrid();
    Runner plain(sim::Config(), /*jobs=*/1);
    auto expected = canonAll(plain.run(batch.requests));

    TempDir dir("gpump_exec_resume");

    // Phase 1 runs in a forked child that the abort hook _exit(3)s
    // right after the 2nd result hits the cache — a sweep killed
    // mid-run, with a genuinely half-populated cache directory.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        Runner child(sim::Config(), /*jobs=*/1);
        exec::ExecOptions opt;
        opt.workers = 1;
        opt.cacheDir = dir.str();
        opt.testAbortAfterResults = 2;
        exec::runBatch(child, batch.requests, opt);
        ::_exit(0); // hook failed to fire: report it as a status
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 3);

    std::size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir.path))
        entries += e.path().extension() == ".entry" ? 1 : 0;
    EXPECT_EQ(entries, 2u);

    // Phase 2: rerun against the same directory; the two completed
    // results load from cache, the rest compute, and the merged batch
    // is byte-identical to the uninterrupted single-process run.
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.cacheDir = dir.str();
    exec::ExecStats stats;
    auto results =
        exec::runBatch(runner, batch.requests, opt, &stats);
    EXPECT_EQ(canonAll(results), expected);
    EXPECT_EQ(stats.cacheHits, 2u);
    EXPECT_EQ(stats.computed, batch.requests.size() - 2);

    // Phase 3: a third run is all hits.
    Runner again(sim::Config(), /*jobs=*/1);
    exec::ExecStats stats2;
    auto cached =
        exec::runBatch(again, batch.requests, opt, &stats2);
    EXPECT_EQ(canonAll(cached), expected);
    EXPECT_EQ(stats2.cacheHits, batch.requests.size());
    EXPECT_EQ(stats2.computed, 0u);
}

TEST(ExecCoordinator, StrictModeFailsOnStaleCacheEntries)
{
    Batch batch = smallGrid();
    TempDir dir("gpump_exec_strictstale");

    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;
    opt.cacheDir = dir.str();
    exec::runBatch(runner, batch.requests, opt);

    // Plant an entry whose key matches no request of the sweep (a
    // fingerprint from some other config/code revision).
    exec::ResultCache(dir.str()).store("stale-key", fullResult());

    exec::ExecStats stats;
    Runner lax(sim::Config(), /*jobs=*/1);
    exec::runBatch(lax, batch.requests, opt, &stats);
    EXPECT_EQ(stats.staleEntries, 1u);

    opt.strictCache = true;
    Runner strict(sim::Config(), /*jobs=*/1);
    EXPECT_THROW(exec::runBatch(strict, batch.requests, opt),
                 sim::FatalError);
}

// ---------------------------------------------------------------------
// Flag validation and graceful interruption
// ---------------------------------------------------------------------

TEST(ExecFlags, ParallelismFlagsRejectNonPositiveValues)
{
    auto argsFor = [](const char *flag) {
        const char *argv[] = {"prog", flag};
        return Args(2, const_cast<char **>(argv), {"jobs", "workers"});
    };
    EXPECT_THROW(argsFor("--jobs=0").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--workers=-3").flagPositiveInt("workers", 0),
                 sim::FatalError);
    EXPECT_THROW(argsFor("--jobs=zap").flagPositiveInt("jobs", 1),
                 sim::FatalError);
    EXPECT_EQ(argsFor("--jobs=8").flagPositiveInt("jobs", 1), 8);
    // Absent flag: default passes through unvalidated (0 means "off"
    // for --workers).
    EXPECT_EQ(argsFor("--jobs=8").flagPositiveInt("workers", 0), 0);
}

TEST(ExecInterrupt, RunnerStopsCleanlyAndReportsTheSignal)
{
    Batch batch = smallGrid();
    Runner runner(sim::Config(), /*jobs=*/2);

    installInterruptHandlers();
    ASSERT_FALSE(interruptRequested());
    ::raise(SIGTERM); // handler records it; SA_RESETHAND re-arms dfl
    ASSERT_TRUE(interruptRequested());

    try {
        runner.run(batch.requests);
        FAIL() << "expected InterruptedError";
    } catch (const InterruptedError &e) {
        EXPECT_EQ(e.signal(), SIGTERM);
    }

    // Cleared, the same Runner completes normally.
    clearInterruptForTesting();
    EXPECT_EQ(runner.run(batch.requests).size(),
              batch.requests.size());
}

TEST(ExecInterrupt, CoordinatorStopsCleanlyAndReportsTheSignal)
{
    Batch batch = smallGrid();
    Runner runner(sim::Config(), /*jobs=*/1);
    exec::ExecOptions opt;
    opt.workers = 2;

    installInterruptHandlers();
    ::raise(SIGTERM);
    ASSERT_TRUE(interruptRequested());
    EXPECT_THROW(exec::runBatch(runner, batch.requests, opt),
                 InterruptedError);
    clearInterruptForTesting();
}
