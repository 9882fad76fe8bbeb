#include "predict/bore_burst.hh"

#include "core/framework.hh"
#include "sim/logging.hh"

namespace gpump {
namespace predict {

BoreBurstPolicy::BoreBurstPolicy(int smoothness, int max_offset,
                                 double decay_us, bool exclusive)
    : PpqPolicy(exclusive),
      burst_(smoothness, max_offset, decay_us)
{
}

void
BoreBurstPolicy::bind(core::SchedulingFramework &fw)
{
    PpqPolicy::bind(fw);
    fw.addCompletionObserver(this);
}

void
BoreBurstPolicy::observeKernel(const gpu::KernelExec &k,
                               sim::SimTime first_issued, sim::SimTime now)
{
    burst_.observeKernel(k, first_issued, now);
}

int
BoreBurstPolicy::penaltyOf(const gpu::KernelExec *k) const
{
    return burst_.burstScore(k->ctx(), fw_->sim().now());
}

int
BoreBurstPolicy::effectivePriority(const gpu::KernelExec *k) const
{
    return k->priority() - penaltyOf(k);
}

// --------------------------------------------------------- registry

namespace {

[[maybe_unused]] const bool registered_bore_burst = [] {
    core::PolicyRegistry::Descriptor d;
    d.name = "bore_burst";
    d.doc = "Preemptive priority queues with BORE-style burstiness "
            "demotion: a context's observed kernel service times "
            "lower its effective priority by the log2 bucket of its "
            "smoothed burst length, decaying while it idles";
    d.tunables = {
        {"bore.smoothness", core::TunableType::Int, "2",
         "EWMA shift of the burst average: each kernel moves it by "
         "1/2^smoothness of the error (>= 0)",
         sim::atLeast(0, sim::maxInt)},
        {"bore.max_offset", core::TunableType::Int, "8",
         "cap on the burst-score priority demotion (>= 0)",
         sim::atLeast(0, sim::maxInt)},
        {"bore.decay_us", core::TunableType::Double, "2000",
         "idle time per bucket of burst-score decay, microseconds "
         "(> 0)",
         sim::above(0)},
        {"bore.exclusive", core::TunableType::Bool, "false",
         "run on top of exclusive-mode PPQ instead of shared mode", {}},
    };
    d.factory = [](const sim::Config &cfg) {
        return std::make_unique<BoreBurstPolicy>(
            cfg.get<int>("bore.smoothness"), cfg.get<int>("bore.max_offset"),
            cfg.get<double>("bore.decay_us"),
            cfg.get<bool>("bore.exclusive"));
    };
    core::policyRegistry().add(std::move(d));
    return true;
}();

} // namespace

} // namespace predict

namespace core {
GPUMP_DEFINE_LINK_ANCHOR(BoreBurstPolicy)
} // namespace core

} // namespace gpump
