/**
 * Tests of the pluggable scheme registry (core/registry.hh): fail-fast
 * duplicate registration and key declaration, sorted stable listings,
 * tunable-default round-trips through Config::merge, validation of
 * unknown/ill-typed tunables (with nearest-key suggestions), label
 * uniqueness across the registered cross-product, and out-of-tree
 * registration through the public surface only.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/adaptive.hh"
#include "core/policy.hh"
#include "core/timemux.hh"
#include "core/preemption.hh"
#include "harness/runner.hh"
#include "sim/logging.hh"
#include "workload/system.hh"

using namespace gpump;
using namespace gpump::core;

namespace {

/** Fatal-message helper: run @p fn, return the FatalError text. */
template <typename Fn>
std::string
fatalMessageOf(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected sim::FatalError";
    return "";
}

struct Dummy
{
    virtual ~Dummy() = default;
};

using DummyRegistry = SchemeRegistry<Dummy>;

DummyRegistry::Descriptor
dummyDescriptor(const std::string &name)
{
    DummyRegistry::Descriptor d;
    d.name = name;
    d.doc = "a dummy";
    d.factory = [](const sim::Config &) {
        return std::make_unique<Dummy>();
    };
    return d;
}

} // namespace

TEST(SchemeRegistry, DuplicateRegistrationFailsFast)
{
    DummyRegistry reg("dummy");
    reg.add(dummyDescriptor("alpha"));
    EXPECT_THROW(reg.add(dummyDescriptor("alpha")), sim::FatalError);

    auto aliased = dummyDescriptor("beta");
    aliased.aliases = {"b"};
    reg.add(std::move(aliased));
    // Both the canonical name and the alias are reserved.
    EXPECT_THROW(reg.add(dummyDescriptor("b")), sim::FatalError);
    auto clash = dummyDescriptor("gamma");
    clash.aliases = {"beta"};
    EXPECT_THROW(reg.add(std::move(clash)), sim::FatalError);

    // Self-duplicates fail fast too: an alias equal to the own name,
    // or repeated within the alias list.
    auto self_alias = dummyDescriptor("delta");
    self_alias.aliases = {"delta"};
    EXPECT_THROW(reg.add(std::move(self_alias)), sim::FatalError);
    auto repeated = dummyDescriptor("epsilon");
    repeated.aliases = {"e", "e"};
    EXPECT_THROW(reg.add(std::move(repeated)), sim::FatalError);
}

TEST(SchemeRegistry, RejectsEmptyNameMissingFactoryAndDuplicateKey)
{
    DummyRegistry reg("dummy");
    EXPECT_THROW(reg.add(dummyDescriptor("")), sim::FatalError);

    auto no_factory = dummyDescriptor("nf");
    no_factory.factory = nullptr;
    EXPECT_THROW(reg.add(std::move(no_factory)), sim::FatalError);

    // Every key is declared once, process-wide: a tunable may not
    // restate a built-in scheme's key, a model key or its own.
    workload::validateConfig(sim::Config()); // links every declaration
    for (const char *taken : {"dss.retarget", "gpu.num_sms"}) {
        auto dup = dummyDescriptor("dup");
        dup.tunables = {{"dummy.fresh", TunableType::Int, "1", "doc", {}},
                        {taken, TunableType::Int, "1", "doc", {}}};
        EXPECT_THROW(reg.add(std::move(dup)), sim::FatalError) << taken;
    }
    auto twice = dummyDescriptor("twice");
    twice.tunables = {{"dummy.twice", TunableType::Int, "1", "doc", {}},
                      {"dummy.twice", TunableType::Int, "1", "doc", {}}};
    EXPECT_THROW(reg.add(std::move(twice)), sim::FatalError);

    // A failed registration declares nothing and registers nothing.
    auto first = dummyDescriptor("dup");
    first.tunables = {{"dummy.fresh", TunableType::Int, "1", "doc", {}}};
    reg.add(std::move(first));
    EXPECT_NE(reg.find("dup"), nullptr);
    EXPECT_EQ(reg.find("twice"), nullptr);

    // A second registrant, in any registry, cannot declare it again.
    auto second = dummyDescriptor("second");
    second.tunables = {{"dummy.fresh", TunableType::Int, "2", "doc", {}}};
    EXPECT_THROW(reg.add(std::move(second)), sim::FatalError);
    DummyRegistry other("other dummy");
    auto third = dummyDescriptor("third");
    third.tunables = {{"dummy.fresh", TunableType::Int, "2", "doc", {}}};
    EXPECT_THROW(other.add(std::move(third)), sim::FatalError);
}

TEST(SchemeRegistry, ListIsSortedStableAndAliasesResolve)
{
    DummyRegistry reg("dummy");
    reg.add(dummyDescriptor("zeta"));
    reg.add(dummyDescriptor("alpha"));
    auto mid = dummyDescriptor("mid");
    mid.aliases = {"m"};
    reg.add(std::move(mid));

    std::vector<std::string> names = reg.list();
    EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(reg.list(), names); // stable across calls

    ASSERT_NE(reg.find("m"), nullptr);
    EXPECT_EQ(reg.find("m")->name, "mid"); // alias -> canonical
    EXPECT_EQ(reg.find("nope"), nullptr);
    EXPECT_EQ(reg.size(), 3u); // aliases not counted
}

TEST(SchemeRegistry, UnknownNameErrorListsEveryEntry)
{
    std::string msg = fatalMessageOf(
        [] { makePolicy("lottery", sim::Config()); });
    // The error enumerates the live registry so users see what exists.
    for (const std::string &name : policyRegistry().list())
        EXPECT_NE(msg.find(name), std::string::npos) << msg;

    msg = fatalMessageOf([] { makeMechanism("bogus"); });
    for (const std::string &name : mechanismRegistry().list())
        EXPECT_NE(msg.find(name), std::string::npos) << msg;
}

TEST(SchemeRegistry, BuiltinsAreRegistered)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    std::vector<std::string> policies = policyRegistry().list();
    for (const char *p : {"fcfs", "npq", "ppq_excl", "ppq_shared",
                          "dss", "tmux", "ppq_aging"}) {
        EXPECT_TRUE(std::find(policies.begin(), policies.end(), p) !=
                    policies.end())
            << p;
    }
    EXPECT_GE(policies.size(), 6u);

    std::vector<std::string> mechanisms = mechanismRegistry().list();
    for (const char *m : {"context_switch", "draining", "adaptive"}) {
        EXPECT_TRUE(std::find(mechanisms.begin(), mechanisms.end(),
                              m) != mechanisms.end())
            << m;
    }
    EXPECT_GE(mechanisms.size(), 3u);

    // Every registrant documents itself.
    for (const std::string &p : policies)
        EXPECT_FALSE(policyRegistry().at(p).doc.empty()) << p;
    for (const std::string &m : mechanisms)
        EXPECT_FALSE(mechanismRegistry().at(m).doc.empty()) << m;
}

TEST(SchemeRegistry, TunableDefaultsRoundTripThroughMerge)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    auto check = [](const Tunable &t) {
        if (t.def.empty())
            return; // contextual default, set at assembly
        sim::Config defaults;
        defaults.set(t.key, t.def);
        sim::Config merged;
        merged.set("unrelated.key", static_cast<std::int64_t>(7));
        merged.merge(defaults);
        // The default survives a merge, parses as its declared type
        // and lies within its declared bound.
        EXPECT_NO_THROW(workload::validateConfig(defaults)) << t.key;
        switch (t.type) {
          case TunableType::Int:
            EXPECT_EQ(merged.getInt(t.key, -1),
                      defaults.getInt(t.key, -2))
                << t.key;
            break;
          case TunableType::Double:
            EXPECT_EQ(merged.getDouble(t.key, -1.0),
                      defaults.getDouble(t.key, -2.0))
                << t.key;
            break;
          case TunableType::Bool:
            EXPECT_EQ(merged.getBool(t.key, false),
                      defaults.getBool(t.key, true))
                << t.key;
            break;
        }
    };
    for (const std::string &p : policyRegistry().list())
        for (const Tunable &t : policyRegistry().at(p).tunables)
            check(t);
    for (const std::string &m : mechanismRegistry().list())
        for (const Tunable &t : mechanismRegistry().at(m).tunables)
            check(t);
}

TEST(SchemeRegistry, UnknownDssKeyIsRejectedWithSuggestion)
{
    // Regression: unknown keys used to be silently ignored (a typo'd
    // ablation ran the default instead).
    sim::Config cfg;
    cfg.set("dss.tokens_per_kerel", static_cast<std::int64_t>(2));
    std::string msg =
        fatalMessageOf([&] { workload::validateConfig(cfg); });
    EXPECT_NE(msg.find("dss.tokens_per_kerel"), std::string::npos)
        << msg;
    // ... and the nearest declared tunable is suggested.
    EXPECT_NE(msg.find("dss.tokens_per_kernel"), std::string::npos)
        << msg;

    // A key nothing like any declared tunable gets no misleading
    // "did you mean"; the error enumerates the keys of its namespace.
    sim::Config far_off;
    far_off.set("dss.verbose", std::string("yes"));
    std::string far_msg =
        fatalMessageOf([&] { workload::validateConfig(far_off); });
    EXPECT_EQ(far_msg.find("did you mean"), std::string::npos)
        << far_msg;
    EXPECT_NE(far_msg.find("dss.retarget"), std::string::npos)
        << far_msg;

    // And through the full System assembly path, whichever policy
    // runs: the key is declared by DSS but rejected for every scheme.
    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm"};
    for (const char *policy : {"dss", "fcfs"}) {
        spec.policy = policy;
        EXPECT_THROW(workload::System(spec, cfg), sim::FatalError);
    }
}

TEST(SchemeRegistry, IllTypedTunableValueIsRejected)
{
    sim::Config cfg;
    cfg.set("dss.retarget", std::string("banana"));
    EXPECT_THROW(makePolicy("dss", cfg), sim::FatalError);

    sim::Config mcfg;
    mcfg.set("adaptive.bias", std::string("fast"));
    EXPECT_THROW(makeMechanism("adaptive", mcfg), sim::FatalError);

    // The validator checks the declared type before any factory runs.
    EXPECT_THROW(workload::validateConfig(cfg), sim::FatalError);
    EXPECT_THROW(workload::validateConfig(mcfg), sim::FatalError);

    // No namespace is left unchecked: model keys are declared too,
    // and an undeclared key is rejected whatever its prefix.
    sim::Config other;
    other.set("gpu.num_sms", static_cast<std::int64_t>(4));
    EXPECT_NO_THROW(workload::validateConfig(other));
    other.set("unclaimed.whatever", "fine");
    EXPECT_THROW(workload::validateConfig(other), sim::FatalError);
}

TEST(SchemeRegistry, SchemeLabelsNeverCollideAcrossRegistry)
{
    core::linkBuiltinPolicies();
    core::linkBuiltinMechanisms();
    std::set<std::string> labels;
    std::size_t combos = 0;
    for (const std::string &p : policyRegistry().list()) {
        const auto &pd = policyRegistry().at(p);
        std::vector<std::string> mechs =
            pd.usesMechanism ? mechanismRegistry().list()
                             : std::vector<std::string>{
                                   "context_switch"};
        for (const std::string &m : mechs) {
            for (const char *xfer : {"fcfs", "priority"}) {
                harness::Scheme s{p, m, xfer};
                EXPECT_TRUE(labels.insert(s.label()).second)
                    << "label collision: " << s.label();
                ++combos;
            }
        }
    }
    EXPECT_EQ(labels.size(), combos);

    // Aliases canonicalize to the same label as the full name, so an
    // aliased spelling is the *same* scheme, not a colliding one.
    harness::Scheme cs{"dss", "context_switch", "fcfs"};
    harness::Scheme cs_alias{"dss", "cs", "fcfs"};
    EXPECT_EQ(cs.label(), cs_alias.label());
}

TEST(SchemeRegistry, OutOfTreeRegistrationConstructsAndRuns)
{
    // The examples/custom_policy.cpp recipe, in miniature: register
    // through the public surface only, then run by name.
    static bool constructed = false;
    PolicyRegistry::Descriptor d;
    d.name = "test_fcfs_clone";
    d.doc = "registered from a test";
    d.usesMechanism = false;
    d.factory = [](const sim::Config &) {
        constructed = true;
        // Reuse a built-in implementation: the registry only needs a
        // working factory, not a new class.
        return policyRegistry().at("fcfs").factory(sim::Config());
    };
    policyRegistry().add(std::move(d));

    workload::SystemSpec spec;
    spec.benchmarks = {"sgemm"};
    spec.policy = "test_fcfs_clone";
    spec.minReplays = 1;
    workload::System system(spec);
    auto result = system.run(sim::seconds(60.0));
    EXPECT_TRUE(constructed);
    EXPECT_EQ(result.runs.size(), 1u);
    EXPECT_GT(result.meanTurnaroundUs.at(0), 0.0);
}

TEST(SchemeRegistry, DeclaredDefaultsReachTheFactory)
{
    // make() merges the declared non-contextual defaults into the
    // factory's config, so the Tunable.def a scheme advertises is the
    // value a default construction actually uses.
    auto policy = makePolicy("tmux", sim::Config());
    auto *tmux = dynamic_cast<core::TimeMuxPolicy *>(policy.get());
    ASSERT_NE(tmux, nullptr);
    EXPECT_EQ(tmux->quantum(), sim::microseconds(200.0));

    auto mech = makeMechanism("adaptive");
    auto *adaptive =
        dynamic_cast<core::AdaptiveMechanism *>(mech.get());
    ASSERT_NE(adaptive, nullptr);
    EXPECT_EQ(adaptive->bias(), 1.0);
}

TEST(SchemeRegistry, AdaptiveRegistersOracleAndPredictedEstimators)
{
    // One class, two registrations: the name selects the drain
    // estimator, and only the predicted one owns a runtime model.
    auto oracle = makeMechanism("adaptive");
    auto *a = dynamic_cast<core::AdaptiveMechanism *>(oracle.get());
    ASSERT_NE(a, nullptr);
    EXPECT_STREQ(a->name(), "adaptive");
    EXPECT_EQ(a->predictor(), nullptr);

    auto predicted = makeMechanism("pred_adaptive");
    auto *p = dynamic_cast<core::AdaptiveMechanism *>(predicted.get());
    ASSERT_NE(p, nullptr);
    EXPECT_STREQ(p->name(), "pred_adaptive");
    EXPECT_NE(p->predictor(), nullptr);
    EXPECT_EQ(p->bias(), 1.0);
    EXPECT_EQ(p->confidenceMin(), 0.5);

    sim::Config cfg;
    cfg.set("pred.bias", -1.0);
    EXPECT_THROW(workload::validateConfig(cfg), sim::FatalError);
}

TEST(SchemeRegistry, AdaptiveMechanismHasDeclaredBias)
{
    const auto &d = mechanismRegistry().at("adaptive");
    ASSERT_EQ(d.tunables.size(), 1u);
    EXPECT_EQ(d.tunables[0].key, "adaptive.bias");
    EXPECT_EQ(d.tunables[0].type, TunableType::Double);
    sim::Config cfg;
    cfg.set("adaptive.bias", -1.0);
    EXPECT_THROW(workload::validateConfig(cfg), sim::FatalError);
}
