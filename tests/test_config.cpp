/**
 * Unit tests for the configuration store, and table-driven tests of
 * the declared keys: every declared key rejects a typo, a value just
 * past its bound and an int overflow, and a mutation fuzz of
 * key=value tokens through Args, the validator and the model readers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gpu/gpu_config.hh"
#include "harness/args.hh"
#include "memory/gpu_memory.hh"
#include "memory/pcie.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/host_cpu.hh"
#include "workload/system.hh"

using namespace gpump;
using sim::Config;

TEST(Config, DefaultsWhenAbsent)
{
    Config c;
    EXPECT_DOUBLE_EQ(c.getDouble("k", 2.5), 2.5);
    EXPECT_EQ(c.getInt("k", 7), 7);
    EXPECT_TRUE(c.getBool("k", true));
    EXPECT_FALSE(c.has("k"));
}

TEST(Config, TypedRoundTrips)
{
    Config c;
    c.set("d", 3.25);
    c.set("i", static_cast<std::int64_t>(-42));
    c.set("b", true);
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 3.25);
    EXPECT_EQ(c.getInt("i", 0), -42);
    EXPECT_TRUE(c.getBool("b", false));
}

TEST(Config, ParseTokens)
{
    Config c;
    EXPECT_TRUE(c.parse("gpu.num_sms=13"));
    EXPECT_EQ(c.getInt("gpu.num_sms", 0), 13);
    EXPECT_FALSE(c.parse("no-equals"));
    EXPECT_FALSE(c.parse("=value"));
    // Value may itself contain '='.
    EXPECT_TRUE(c.parse("expr=a=b"));
    EXPECT_EQ(c.fingerprint(), "expr=a\\=b;gpu.num_sms=13;");
}

TEST(Config, GettersCheckADeclaredKeysBound)
{
    workload::validateConfig(Config()); // links every declaration
    Config c;
    c.set("gpu.num_sms", static_cast<std::int64_t>(0));
    c.set("gpu.tb_time_cv", -0.5);
    c.set("undeclared", static_cast<std::int64_t>(-1));
    EXPECT_THROW(c.getInt("gpu.num_sms", 13), sim::FatalError);
    EXPECT_THROW(c.get<double>("gpu.tb_time_cv"), sim::FatalError);
    EXPECT_EQ(c.getInt("undeclared", 0), -1);
    // An absent key reads as its declared default, else the caller's;
    // get() requires one of the two.
    EXPECT_EQ(c.get<double>("tmux.quantum_us"), 200.0);
    EXPECT_EQ(c.getDouble("tmux.quantum_us", 7.0), 200.0);
    EXPECT_TRUE(c.getBool("engine.preempted_first", true));
    EXPECT_THROW(c.get<bool>("engine.preempted_first"), sim::FatalError);
}

TEST(Config, ConversionErrorsAreFatal)
{
    Config c;
    c.set("x", std::string("not-a-number"));
    EXPECT_THROW(c.getDouble("x", 0), sim::FatalError);
    EXPECT_THROW(c.getInt("x", 0), sim::FatalError);
    EXPECT_THROW(c.getBool("x", false), sim::FatalError);
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("b", std::string(t));
        EXPECT_TRUE(c.getBool("b", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("b", std::string(f));
        EXPECT_FALSE(c.getBool("b", true)) << f;
    }
}

TEST(Config, IntParsesHex)
{
    Config c;
    c.set("h", std::string("0x10"));
    EXPECT_EQ(c.getInt("h", 0), 16);
}

TEST(Config, MergeOverlayWins)
{
    Config base;
    base.set("a", static_cast<std::int64_t>(1));
    base.set("b", static_cast<std::int64_t>(2));
    Config overlay;
    overlay.set("b", static_cast<std::int64_t>(20));
    overlay.set("c", static_cast<std::int64_t>(30));

    base.merge(overlay);
    EXPECT_EQ(base.getInt("a", 0), 1);
    EXPECT_EQ(base.getInt("b", 0), 20);
    EXPECT_EQ(base.getInt("c", 0), 30);
    // The overlay itself is untouched.
    EXPECT_FALSE(overlay.has("a"));
}

TEST(Config, FingerprintCanonical)
{
    Config a, b;
    a.set("zeta", static_cast<std::int64_t>(1));
    a.set("alpha", std::string("x"));
    b.set("alpha", std::string("x"));
    b.set("zeta", static_cast<std::int64_t>(1));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), "alpha=x;zeta=1;");
    EXPECT_EQ(Config().fingerprint(), "");

    b.set("zeta", static_cast<std::int64_t>(2));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Config, FingerprintEscapesSeparators)
{
    // {"a": "1;b=2"} must not collide with {"a": "1", "b": "2"}.
    Config tricky;
    tricky.set("a", std::string("1;b=2"));
    Config plain;
    plain.set("a", std::string("1"));
    plain.set("b", std::string("2"));
    EXPECT_NE(tricky.fingerprint(), plain.fingerprint());
    EXPECT_EQ(tricky.fingerprint(), "a=1\\;b\\=2;");
}

// ---------------------------------------------------------------------
// Declared keys
// ---------------------------------------------------------------------

namespace {

/** Every declared key: the model tables and the built-in schemes. */
std::vector<sim::Tunable>
everyDeclaredKey()
{
    workload::validateConfig(Config()); // links every declaration
    return sim::declaredKeys();
}

/** The FatalError a System assembly under @p cfg raises, or "". */
std::string
assemblyError(const Config &cfg)
{
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm"};
    try {
        workload::System system(spec, cfg);
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return "";
}

bool
contains(const std::string &text, const std::string &part)
{
    return text.find(part) != std::string::npos;
}

/** Numeric keys set to @p v in their declared type. */
Config
withValue(const sim::Tunable &t, double v)
{
    Config c;
    if (t.type == sim::TunableType::Int)
        c.set(t.key, static_cast<std::int64_t>(v));
    else
        c.set(t.key, v);
    return c;
}

} // namespace

TEST(DeclaredKeys, CoverTheModelAndEveryBuiltinScheme)
{
    std::set<std::string> keys;
    for (const sim::Tunable &t : everyDeclaredKey()) {
        keys.insert(t.key);
        EXPECT_FALSE(t.doc.empty()) << t.key;
    }
    for (const char *k :
         {"gpu.num_sms", "gpu.tb_time_cv", "pcie.lanes", "gmem.capacity",
          "cpu.cores", "cpu.kernel_launch_overhead_us",
          "process.scratch_bytes", "engine.preempted_first",
          "dss.tokens_per_kernel", "ppq_aging.step", "tmux.quantum_us",
          "proactive_mem.lookahead", "bore.smoothness", "adaptive.bias",
          "pred.ewma_alpha"}) {
        EXPECT_EQ(keys.count(k), 1u) << k;
    }
    // Assembly and every reader run on the defaults.
    EXPECT_EQ(assemblyError(Config()), "");
    EXPECT_NO_THROW(gpu::GpuParams::fromConfig(Config()));
    EXPECT_NO_THROW(memory::PcieParams::fromConfig(Config()));
    EXPECT_NO_THROW(memory::GpuMemoryParams::fromConfig(Config()));
    EXPECT_NO_THROW(workload::CpuParams::fromConfig(Config()));
}

TEST(DeclaredKeys, OneEditTypoOfEveryKeyNamesTheKey)
{
    const std::vector<sim::Tunable> keys = everyDeclaredKey();
    std::set<std::string> names;
    for (const sim::Tunable &t : keys)
        names.insert(t.key);
    for (const sim::Tunable &t : keys) {
        std::string typo = t.key;
        typo.back() = typo.back() == 'x' ? 'q' : 'x';
        ASSERT_EQ(names.count(typo), 0u) << typo;
        Config c;
        c.set(typo, std::string("1"));
        EXPECT_TRUE(contains(assemblyError(c),
                             "did you mean '" + t.key + "'?"))
            << typo << ": " << assemblyError(c);
    }
}

TEST(DeclaredKeys, ValueJustPastEveryBoundIsFatal)
{
    int checked = 0;
    for (const sim::Tunable &t : everyDeclaredKey()) {
        if (t.type == sim::TunableType::Bool)
            continue;
        const bool is_int = t.type == sim::TunableType::Int;
        auto step = [is_int](double x) {
            return is_int ? 1.0 : std::max(1e-9, std::fabs(x) * 1e-9);
        };
        const sim::Bound &b = t.bound;
        std::vector<double> past;
        if (b.lo != -sim::inf)
            past.push_back(b.loOpen ? b.lo : b.lo - step(b.lo));
        if (b.hi != sim::inf)
            past.push_back(b.hi + step(b.hi));
        for (double v : past) {
            // A PanicError escaping here fails the test.
            std::string err = assemblyError(withValue(t, v));
            EXPECT_TRUE(contains(err, "'" + t.key + "'") &&
                        contains(err, "must be"))
                << t.key << "=" << v << ": " << err;
            ++checked;
        }
        // The closed ends themselves are accepted.
        if (b.lo != -sim::inf && !b.loOpen) {
            EXPECT_NO_THROW(workload::validateConfig(withValue(t, b.lo)))
                << t.key;
        }
        if (b.hi != sim::inf) {
            EXPECT_NO_THROW(workload::validateConfig(withValue(t, b.hi)))
                << t.key;
        }
    }
    EXPECT_GT(checked, 30);
}

TEST(DeclaredKeys, IntKeysRejectValuesPastTheirType)
{
    const std::int64_t big = (std::int64_t{1} << 32) + 13;
    std::set<std::string> int64_keys;
    for (const sim::Tunable &t : everyDeclaredKey()) {
        if (t.type != sim::TunableType::Int)
            continue;
        Config c;
        c.set(t.key, big);
        std::string err = assemblyError(c);
        if (t.bound.hi < static_cast<double>(big)) {
            EXPECT_TRUE(contains(err, "'" + t.key + "' is 4294967309"))
                << t.key << ": " << err;
        } else {
            int64_keys.insert(t.key);
        }
    }
    // Only the byte counts, which are read into int64, admit it ...
    EXPECT_EQ(int64_keys,
              (std::set<std::string>{"gmem.capacity", "pcie.burst_bytes",
                                     "process.scratch_bytes"}));
    // ... and their readers keep it exactly.
    Config c;
    c.set("gmem.capacity", big);
    c.set("pcie.burst_bytes", big);
    EXPECT_EQ(memory::GpuMemoryParams::fromConfig(c).capacity, big);
    EXPECT_EQ(memory::PcieParams::fromConfig(c).burstBytes, big);
}

namespace {

/** One random edit of @p s: replace, insert or delete a character, or
 *  duplicate a span. */
void
mutateToken(std::string &s, sim::Rng &rng)
{
    static const std::string alphabet =
        "0123456789.-+eExXabcdfinopstuvwyz_= \t,;'";
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniformInt(
            static_cast<std::uint64_t>(n)));
    };
    const char c = alphabet[pick(alphabet.size())];
    switch (rng.uniformInt(std::uint64_t{4})) {
      case 0:
        if (!s.empty())
            s[pick(s.size())] = c;
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                 c);
        break;
      case 2:
        if (!s.empty())
            s.erase(pick(s.size()), 1);
        break;
      default: {
        std::size_t at = pick(s.size() + 1);
        s.insert(at, s.substr(at, pick(8)));
        break;
      }
    }
}

} // namespace

TEST(DeclaredKeys, MutatedKeyValueTokensAreAcceptedOrFatal)
{
    // Deterministic mutation fuzz: every key=value token, however
    // mangled, is accepted or raises FatalError through Args, the
    // validator and the four model readers; and the readers accept
    // whatever the validator accepts.
    std::vector<std::string> seeds;
    for (const sim::Tunable &t : everyDeclaredKey()) {
        for (const char *v :
             {"0", "1", "-1", "0.5", "1e9", "1e999", "nan", "-inf", "0x10",
              "4294967309", "9223372036854775808", "true", "", " 3"}) {
            seeds.push_back(t.key + "=" + v);
        }
        if (!t.def.empty())
            seeds.push_back(t.key + "=" + t.def);
    }
    sim::Rng rng(20140614);
    int accepted = 0;
    int rejected = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        std::string token = seeds[static_cast<std::size_t>(
            rng.uniformInt(static_cast<std::uint64_t>(seeds.size())))];
        const std::uint64_t edits = rng.uniformInt(std::uint64_t{4});
        for (std::uint64_t e = 0; e < edits; ++e)
            mutateToken(token, rng);
        if (token.rfind("--list-schemes", 0) == 0)
            continue; // would print the registries and exit

        bool args_ok = true;
        const char *argv[] = {"prog", token.c_str()};
        try {
            harness::Args args(2, const_cast<char **>(argv));
        } catch (const sim::FatalError &) {
            args_ok = false;
        }
        Config c;
        bool valid = c.parse(token);
        if (valid) {
            try {
                workload::validateConfig(c);
            } catch (const sim::FatalError &) {
                valid = false;
            }
        }
        EXPECT_EQ(args_ok, valid) << token;
        (valid ? accepted : rejected) += 1;
        try {
            gpu::GpuParams::fromConfig(c);
            memory::PcieParams::fromConfig(c);
            memory::GpuMemoryParams::fromConfig(c);
            workload::CpuParams::fromConfig(c);
        } catch (const sim::FatalError &e) {
            EXPECT_FALSE(valid) << token << ": " << e.what();
        }
        if (HasFailure())
            break;
    }
    // Both outcomes must actually be exercised.
    EXPECT_GT(accepted, 200);
    EXPECT_GT(rejected, 200);
}
